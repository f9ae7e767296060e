//===- serve/Client.cpp - Compile-serving client library ------------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sxe {

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

static int connectOnce(const std::string &SocketPath, std::string &Error) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.empty() || SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "invalid socket path '" + SocketPath + "'";
    return -1;
  }
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = std::string("connect ") + SocketPath + ": " +
            std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool ServeClient::connectTo(const std::string &SocketPath, std::string &Error,
                            unsigned RetryMillis) {
  close();
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(RetryMillis);
  while (true) {
    Fd = connectOnce(SocketPath, Error);
    if (Fd >= 0)
      return true;
    if (RetryMillis == 0 || std::chrono::steady_clock::now() >= Deadline)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

bool ServeClient::roundTrip(FrameType Send, const std::string &Payload,
                            FrameType Expect, std::string &ReplyPayload,
                            std::string &Error) {
  if (Fd < 0) {
    Error = "not connected";
    return false;
  }
  if (!writeFrame(Fd, Send, Payload, Error))
    return false;
  FrameType Got;
  if (!readFrame(Fd, Got, ReplyPayload, Error))
    return false;
  if (Got != Expect) {
    Error = "unexpected reply frame type " +
            std::to_string(static_cast<unsigned>(Got));
    return false;
  }
  return true;
}

bool ServeClient::compile(const ServeRequest &Request, ServeReply &Reply,
                          std::string &Error) {
  // Mint the trace identity client-side so the daemon's spans and events
  // for this request join back to the client's record of it. The ids are
  // stamped at encode time; the request (and its source) is not copied.
  uint64_t TraceId = Request.TraceId ? Request.TraceId : mintTraceId();
  uint64_t ClientRequestId = Request.ClientRequestId
                                 ? Request.ClientRequestId
                                 : NextClientRequestId++;

  uint64_t Start = wallNowNanos();
  std::string Payload;
  if (!roundTrip(FrameType::Compile,
                 encodeServeRequest(Request, TraceId, ClientRequestId),
                 FrameType::CompileReply, Payload, Error))
    return false;
  if (!decodeServeReply(Payload, Reply, Error))
    return false;
  if (Trace) {
    std::vector<std::pair<std::string, std::string>> Args;
    Args.emplace_back("trace_id", traceIdHex(TraceId));
    if (Reply.RequestId)
      Args.emplace_back("request_id", std::to_string(Reply.RequestId));
    if (!Request.Name.empty())
      Args.emplace_back("module", Request.Name);
    Args.emplace_back("status",
                      Reply.Ok ? "ok" : serveErrorKindName(Reply.ErrorKind));
    Trace->addSpan("request", "client", Start, wallNowNanos(),
                   std::move(Args));
  }
  return true;
}

bool ServeClient::ping(std::string &Error) {
  std::string Payload;
  return roundTrip(FrameType::Ping, "", FrameType::Pong, Payload, Error);
}

bool ServeClient::fetchMetrics(std::string &PrometheusText,
                               std::string &Error) {
  std::string Payload;
  if (!roundTrip(FrameType::MetricsQuery, "", FrameType::MetricsReply,
                 Payload, Error))
    return false;
  JsonValue Doc;
  if (!parseJson(Payload, Doc, Error))
    return false;
  PrometheusText = Doc.stringField("prometheus");
  return true;
}

bool ServeClient::requestShutdown(std::string &Error) {
  std::string Payload;
  return roundTrip(FrameType::Shutdown, "", FrameType::ShutdownAck, Payload,
                   Error);
}

bool ServeClient::fetchFlightDump(std::string &DumpJsonl,
                                  std::string &Error) {
  return roundTrip(FrameType::Dump, "", FrameType::DumpReply, DumpJsonl,
                   Error);
}

} // namespace sxe

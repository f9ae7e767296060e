//===- serve/Daemon.cpp - Unix-socket compile-serving daemon --------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "serve/Daemon.h"

#include "support/Json.h"
#include "support/Timer.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sxe {

ServeDaemon::ServeDaemon(ServeDaemonOptions Opts)
    : Options(std::move(Opts)), Cache(Options.MemoryCache),
      Flight(Options.FlightCapacity), Events(&Flight),
      Admission(Options.Admission) {
  if (Options.Jobs == 0)
    Options.Jobs = 1;
  if (!Options.CacheDir.empty()) {
    PersistentCacheOptions PCache;
    PCache.Dir = Options.CacheDir;
    PCache.MaxBytes = Options.CacheMaxBytes;
    Persistent = std::make_unique<PersistentCache>(PCache);
  }
  CompileServiceOptions SvcOpts;
  SvcOpts.Jobs = Options.Jobs;
  SvcOpts.Cache = &Cache;
  SvcOpts.Persistent = Persistent.get();
  SvcOpts.Metrics = &Metrics;
  SvcOpts.CollectRemarks = Options.CollectRemarks;
  if (Options.Tracing) {
    SvcOpts.Trace = &Trace;
    SvcOpts.Events = &Events;
  }
  Service = std::make_unique<CompileService>(SvcOpts);

  ConnectionsMetric =
      &Metrics.counter("sxe_serve_connections_total",
                       "Connections accepted by the serve daemon");
  RequestsMetric =
      &Metrics.counter("sxe_serve_requests_total",
                       "Compile requests received by the serve daemon");
  InflightMetric = &Metrics.gauge(
      "sxe_serve_inflight", "Admitted compile requests currently in flight");
  UptimeMetric = &registerBuildInfoMetrics(Metrics);
}

ServeDaemon::~ServeDaemon() { stop(); }

bool ServeDaemon::start(std::string &Error) {
  if (Started) {
    Error = "daemon already started";
    return false;
  }
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Options.SocketPath.empty() ||
      Options.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "invalid socket path '" + Options.SocketPath + "'";
    return false;
  }
  std::memcpy(Addr.sun_path, Options.SocketPath.c_str(),
              Options.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  // A previous daemon's stale socket file would make bind fail; replace it.
  ::unlink(Options.SocketPath.c_str());
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
      0) {
    Error = std::string("bind ") + Options.SocketPath + ": " +
            std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    return false;
  }
  if (::listen(ListenFd, 64) < 0) {
    Error = std::string("listen: ") + std::strerror(errno);
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Options.SocketPath.c_str());
    return false;
  }
  AcceptThread = std::thread(&ServeDaemon::acceptLoop, this);
  Started = true;
  StartNanos = wallNowNanos();
  if (Options.Tracing)
    Events.log(ObsEventKind::DaemonStart, {}, Options.SocketPath,
               {{"jobs", std::to_string(Options.Jobs)},
                {"version", buildVersion()},
                {"git_sha", buildGitSha()}});
  else
    Flight.record(ObsEventKind::DaemonStart, wallNowNanos(), 0, 0,
                  Options.SocketPath.c_str());
  return true;
}

void ServeDaemon::refreshUptime() {
  if (!StartNanos)
    return;
  UptimeMetric->set(
      static_cast<int64_t>((wallNowNanos() - StartNanos) / 1000000000ull));
}

void ServeDaemon::acceptLoop() {
  while (!stopRequested()) {
    // Poll with a timeout so requestStop() is noticed promptly even when
    // no connection ever arrives.
    pollfd Poll;
    Poll.fd = ListenFd;
    Poll.events = POLLIN;
    Poll.revents = 0;
    int Ready = ::poll(&Poll, 1, /*timeout_ms=*/100);
    if (Ready <= 0)
      continue; // Timeout or EINTR; re-check the stop flag.
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0)
      continue;
    uint64_t ConnId =
        ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed) + 1;
    ConnectionsMetric->inc();
    std::lock_guard<std::mutex> Lock(ConnMu);
    if (stopRequested()) {
      ::close(Fd);
      break;
    }
    ConnFds.push_back(Fd);
    Handlers.emplace_back(&ServeDaemon::handleConnection, this, Fd, ConnId);
  }
}

ServeReply ServeDaemon::errorReply(ServeErrorKind Kind, std::string Message) {
  ServeReply Reply;
  Reply.Ok = false;
  Reply.ErrorKind = Kind;
  Reply.Error = std::move(Message);
  return Reply;
}

ServeReply ServeDaemon::serveCompile(ServeRequest Request, TraceContext Ctx) {
  RequestsMetric->inc();
  std::string DisplayName = Request.Name.empty() ? "<request>" : Request.Name;
  const TargetInfo *Target = serveTargetByName(Request.Target);
  if (!Target)
    return errorReply(ServeErrorKind::Protocol,
                      "unknown target '" + Request.Target + "'");
  Variant V;
  if (!serveVariantByName(Request.Variant, V))
    return errorReply(ServeErrorKind::Protocol,
                      "unknown variant '" + Request.Variant + "'");

  uint64_t BudgetNanos = Request.DeadlineMillis * 1000000ull;
  OverloadError Overload;
  if (!Admission.tryAdmit(BudgetNanos, Overload)) {
    // Load-shed rejections share the service's Rejected ledger and
    // sxe_rejects_total with enqueue-after-shutdown refusals.
    Service->countRejected();
    if (Options.Tracing)
      Events.log(ObsEventKind::Shed, Ctx, DisplayName,
                 {{"cause", Overload.message()},
                  {"queue_depth", std::to_string(Overload.QueueDepth)}});
    return errorReply(ServeErrorKind::Overload, Overload.message());
  }
  InflightMetric->set(static_cast<int64_t>(Admission.depth()));
  if (Options.Tracing) {
    std::vector<std::pair<std::string, std::string>> Fields;
    if (Request.DeadlineMillis)
      Fields.emplace_back("deadline_ms",
                          std::to_string(Request.DeadlineMillis));
    if (Request.ClientRequestId)
      Fields.emplace_back("client_request_id",
                          std::to_string(Request.ClientRequestId));
    Events.log(ObsEventKind::Admit, Ctx, DisplayName, std::move(Fields));
  }

  CompileRequest Compile;
  Compile.Name = DisplayName;
  Compile.Source = std::move(Request.Source);
  Compile.Config = PipelineConfig::forVariant(V, *Target);
  Compile.Hotness = Request.Hotness;
  Compile.TraceId = Ctx.TraceId;
  Compile.RequestId = Ctx.RequestId;
  uint64_t EffectiveBudget =
      BudgetNanos ? BudgetNanos : Admission.options().DefaultDeadlineNanos;
  if (EffectiveBudget)
    Compile.DeadlineNanos = wallNowNanos() + EffectiveBudget;

  CompileResult Result = Service->enqueue(std::move(Compile)).get();
  Admission.onComplete(Result.QueueWaitNanos);
  InflightMetric->set(static_cast<int64_t>(Admission.depth()));

  ServeReply Reply;
  Reply.QueueWaitNanos = Result.QueueWaitNanos;
  Reply.WallNanos = Result.WallNanos;
  if (Result.Rejected) {
    Reply.ErrorKind = ServeErrorKind::Shutdown;
    Reply.Error = Result.Error.empty() ? "compile service is shut down"
                                       : Result.Error;
    return Reply;
  }
  if (Result.DeadlineMiss) {
    Reply.ErrorKind = ServeErrorKind::Deadline;
    Reply.Error = Result.Error.empty() ? "deadline expired" : Result.Error;
    return Reply;
  }
  if (!Result.Ok || !Result.Code) {
    Reply.ErrorKind = Result.Error.rfind("parse error:", 0) == 0
                          ? ServeErrorKind::Parse
                          : ServeErrorKind::Pipeline;
    Reply.Error = Result.Error;
    return Reply;
  }

  Reply.Ok = true;
  Reply.Tier = Result.PersistentHit ? ServeTier::Persistent
               : Result.CacheHit   ? ServeTier::Memory
                                   : ServeTier::Compiled;
  Reply.InputIRHash = Result.Code->InputIRHash;
  if (Request.WantIR)
    Reply.IRText = Result.Code->IRText;
  for (const StatEntry &Entry : Result.Code->Stats.entries())
    Reply.Stats.push_back(Entry);
  if (Request.CollectRemarks)
    Reply.RemarksJsonl = remarksToJsonl(Result.Code->Remarks);
  return Reply;
}

void ServeDaemon::handleConnection(int Fd, uint64_t ConnId) {
  if (Options.Tracing)
    Trace.nameThread("conn-" + std::to_string(ConnId));
  while (true) {
    FrameType Type;
    std::string Payload;
    std::string Error;
    if (!readFrame(Fd, Type, Payload, Error))
      break; // EOF (client done) or a protocol violation; drop the conn.

    bool WroteReply = false;
    std::string WriteError;
    switch (Type) {
    case FrameType::Ping:
      WroteReply = writeFrame(Fd, FrameType::Pong, "", WriteError);
      break;
    case FrameType::MetricsQuery: {
      refreshUptime();
      JsonWriter J;
      J.beginObject();
      J.keyValue("schema", kServeSchema);
      J.keyValue("prometheus", Metrics.toPrometheus());
      J.endObject();
      WroteReply = writeFrame(Fd, FrameType::MetricsReply, J.take(),
                              WriteError);
      break;
    }
    case FrameType::Dump: {
      // On-demand flight-recorder dump: the same sxe.flight.v1 JSONL a
      // fatal signal would write, delivered over the wire.
      if (Options.Tracing)
        Events.log(ObsEventKind::Dump, {}, "conn-" + std::to_string(ConnId));
      else
        Flight.record(ObsEventKind::Dump, wallNowNanos(), 0, 0, "dump");
      WroteReply = writeFrame(Fd, FrameType::DumpReply,
                              Flight.dumpToString(), WriteError);
      break;
    }
    case FrameType::Shutdown:
      WroteReply = writeFrame(Fd, FrameType::ShutdownAck, "", WriteError);
      requestStop();
      break;
    case FrameType::Compile: {
      ServeReply Reply;
      TraceContext Ctx;
      uint64_t ServeStart = wallNowNanos();
      std::string SpanName = "<request>";
      if (stopRequested()) {
        Reply = errorReply(ServeErrorKind::Shutdown, "daemon is draining");
      } else {
        ServeRequest Request;
        std::string DecodeError;
        if (!decodeServeRequest(Payload, Request, DecodeError)) {
          Reply = errorReply(ServeErrorKind::Protocol, DecodeError);
        } else {
          // The client's trace id when it sent one; minted here for
          // legacy id-less clients so every request stays joinable. The
          // request id is always daemon-assigned (dense, 1-based).
          Ctx.TraceId = Request.TraceId ? Request.TraceId : mintTraceId();
          Ctx.RequestId =
              NextRequestId.fetch_add(1, std::memory_order_relaxed);
          if (!Request.Name.empty())
            SpanName = Request.Name;
          Reply = serveCompile(std::move(Request), Ctx);
        }
      }
      Reply.TraceId = Ctx.TraceId;
      Reply.RequestId = Ctx.RequestId;
      if (Options.Tracing) {
        std::vector<std::pair<std::string, std::string>> Args;
        if (Ctx.TraceId)
          Args.emplace_back("trace_id", traceIdHex(Ctx.TraceId));
        if (Ctx.RequestId)
          Args.emplace_back("request_id", std::to_string(Ctx.RequestId));
        Args.emplace_back("status", Reply.Ok
                                        ? "ok"
                                        : serveErrorKindName(Reply.ErrorKind));
        if (Reply.Ok)
          Args.emplace_back("tier", serveTierName(Reply.Tier));
        Trace.addSpan("serve-request", "serve", ServeStart, wallNowNanos(),
                      Args);
        std::vector<std::pair<std::string, std::string>> Fields;
        Fields.emplace_back("status", Reply.Ok
                                          ? "ok"
                                          : serveErrorKindName(
                                                Reply.ErrorKind));
        if (Reply.Ok)
          Fields.emplace_back("tier", serveTierName(Reply.Tier));
        Events.log(ObsEventKind::Reply, Ctx, SpanName, std::move(Fields),
                   /*Aux=*/Reply.Ok ? 0 : static_cast<uint8_t>(
                                              Reply.ErrorKind));
      }
      WroteReply = writeFrame(Fd, FrameType::CompileReply,
                              encodeServeReply(Reply), WriteError);
      break;
    }
    default:
      // A client must not send reply-side frame types.
      WroteReply = false;
      break;
    }
    if (!WroteReply)
      break;
  }
  ::close(Fd);
  // Retire the descriptor so stop() never shutdown(2)s a recycled fd.
  std::lock_guard<std::mutex> Lock(ConnMu);
  for (int &Conn : ConnFds)
    if (Conn == Fd)
      Conn = -1;
}

void ServeDaemon::run() {
  while (!stopRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop();
}

void ServeDaemon::stop() {
  if (Stopped)
    return;
  requestStop();
  if (AcceptThread.joinable())
    AcceptThread.join();
  // Unblock handlers parked in readFrame: they see EOF, finish any
  // in-flight request first (those are parked on the future, not the
  // read), deliver their replies, and exit.
  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Conn : ConnFds)
      if (Conn >= 0)
        ::shutdown(Conn, SHUT_RD);
    ToJoin.swap(Handlers);
  }
  for (std::thread &Handler : ToJoin)
    if (Handler.joinable())
      Handler.join();
  if (Service)
    Service->shutdown();
  if (Persistent)
    Persistent->flushIndex();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Options.SocketPath.c_str());
  }
  if (Options.Tracing)
    Events.log(ObsEventKind::Drain, {}, Options.SocketPath,
               {{"requests",
                 std::to_string(
                     NextRequestId.load(std::memory_order_relaxed) - 1)}});
  else
    Flight.record(ObsEventKind::Drain, wallNowNanos(), 0, 0,
                  Options.SocketPath.c_str());
  refreshUptime();
  // Observability artifacts outlive the process on purpose: they are the
  // post-run inputs of tools/sxe-obs.
  if (!Options.TraceFile.empty())
    writeTextFile(Options.TraceFile, Trace.toJson());
  if (!Options.EventsFile.empty())
    writeTextFile(Options.EventsFile, Events.toJsonl());
  Stopped = true;
}

} // namespace sxe

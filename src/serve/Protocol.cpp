//===- serve/Protocol.cpp - Compile-serving wire protocol -----------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "jit/CompileTask.h"
#include "obs/TraceContext.h"
#include "support/Json.h"

#include <cerrno>
#include <cstring>

#include <sys/uio.h>
#include <unistd.h>

namespace sxe {

static const char kMagic[4] = {'S', 'X', 'E', 'F'};

const char *serveErrorKindName(ServeErrorKind Kind) {
  switch (Kind) {
  case ServeErrorKind::None:
    return "none";
  case ServeErrorKind::Overload:
    return "overload";
  case ServeErrorKind::Deadline:
    return "deadline";
  case ServeErrorKind::Shutdown:
    return "shutdown";
  case ServeErrorKind::Parse:
    return "parse";
  case ServeErrorKind::Pipeline:
    return "pipeline";
  case ServeErrorKind::Protocol:
    return "protocol";
  }
  return "none";
}

bool serveErrorKindByName(const std::string &Name, ServeErrorKind &Out) {
  static const ServeErrorKind All[] = {
      ServeErrorKind::None,     ServeErrorKind::Overload,
      ServeErrorKind::Deadline, ServeErrorKind::Shutdown,
      ServeErrorKind::Parse,    ServeErrorKind::Pipeline,
      ServeErrorKind::Protocol,
  };
  for (ServeErrorKind Kind : All)
    if (Name == serveErrorKindName(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

const char *serveTierName(ServeTier Tier) {
  switch (Tier) {
  case ServeTier::Compiled:
    return "compiled";
  case ServeTier::Memory:
    return "memory";
  case ServeTier::Persistent:
    return "persistent";
  }
  return "compiled";
}

bool serveTierByName(const std::string &Name, ServeTier &Out) {
  static const ServeTier All[] = {ServeTier::Compiled, ServeTier::Memory,
                                  ServeTier::Persistent};
  for (ServeTier Tier : All)
    if (Name == serveTierName(Tier)) {
      Out = Tier;
      return true;
    }
  return false;
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

static bool validFrameType(uint8_t Raw) {
  return Raw >= static_cast<uint8_t>(FrameType::Compile) &&
         Raw <= static_cast<uint8_t>(FrameType::DumpReply);
}

/// Writes \p Count buffers in order with as few writev calls as the
/// socket takes, looping over partial writes.
static bool writeAll(int Fd, iovec *Parts, int Count, std::string &Error) {
  while (Count > 0) {
    ssize_t N = ::writev(Fd, Parts, Count);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    size_t Done = static_cast<size_t>(N);
    while (Count > 0 && Done >= Parts->iov_len) {
      Done -= Parts->iov_len;
      ++Parts;
      --Count;
    }
    if (Count > 0) {
      Parts->iov_base = static_cast<char *>(Parts->iov_base) + Done;
      Parts->iov_len -= Done;
    }
  }
  return true;
}

/// Reads exactly \p Len bytes. AtStart distinguishes "clean EOF between
/// frames" (reported as "eof") from "truncated frame".
static bool readAll(int Fd, char *Data, size_t Len, bool AtStart,
                    std::string &Error) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::read(Fd, Data + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("read: ") + std::strerror(errno);
      return false;
    }
    if (N == 0) {
      Error = (AtStart && Done == 0) ? "eof" : "truncated frame";
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

bool writeFrame(int Fd, FrameType Type, const std::string &Payload,
                std::string &Error) {
  if (Payload.size() > kMaxFrameBytes) {
    Error = "frame payload exceeds 64 MiB limit";
    return false;
  }
  char Header[12];
  std::memcpy(Header, kMagic, 4);
  Header[4] = static_cast<char>(Type);
  Header[5] = Header[6] = Header[7] = 0;
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  Header[8] = static_cast<char>(Len & 0xFF);
  Header[9] = static_cast<char>((Len >> 8) & 0xFF);
  Header[10] = static_cast<char>((Len >> 16) & 0xFF);
  Header[11] = static_cast<char>((Len >> 24) & 0xFF);
  // One writev per frame: the peer never wakes to a header alone.
  iovec Parts[2] = {{Header, sizeof(Header)},
                    {const_cast<char *>(Payload.data()), Payload.size()}};
  return writeAll(Fd, Parts, Payload.empty() ? 1 : 2, Error);
}

bool readFrame(int Fd, FrameType &Type, std::string &Payload,
               std::string &Error) {
  char Header[12];
  if (!readAll(Fd, Header, sizeof(Header), /*AtStart=*/true, Error))
    return false;
  if (std::memcmp(Header, kMagic, 4) != 0) {
    Error = "bad frame magic";
    return false;
  }
  uint8_t RawType = static_cast<uint8_t>(Header[4]);
  if (!validFrameType(RawType)) {
    Error = "unknown frame type " + std::to_string(RawType);
    return false;
  }
  uint32_t Len = static_cast<uint32_t>(static_cast<uint8_t>(Header[8])) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Header[9])) << 8) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Header[10]))
                  << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(Header[11]))
                  << 24);
  if (Len > kMaxFrameBytes) {
    Error = "frame payload length " + std::to_string(Len) +
            " exceeds 64 MiB limit";
    return false;
  }
  Type = static_cast<FrameType>(RawType);
  Payload.assign(Len, '\0');
  if (Len == 0)
    return true;
  return readAll(Fd, &Payload[0], Len, /*AtStart=*/false, Error);
}

//===----------------------------------------------------------------------===//
// Payload encoding
//===----------------------------------------------------------------------===//

/// A hex id (trace id, IR hash): absent or malformed decodes as 0 so
/// pre-trace peers interoperate. Strict: only 1-16 hex digits, so a
/// sign, a "0x" prefix or trailing junk is malformed, not a number.
static uint64_t hexField(const JsonValue &Doc, const char *Name) {
  const JsonValue *Field = Doc.find(Name);
  uint64_t Value = 0;
  if (Field && Field->isString())
    parseTraceIdHex(Field->stringValue(), Value);
  return Value;
}

std::string encodeServeRequest(const ServeRequest &Request) {
  return encodeServeRequest(Request, Request.TraceId, Request.ClientRequestId);
}

std::string encodeServeRequest(const ServeRequest &Request, uint64_t TraceId,
                               uint64_t ClientRequestId) {
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kServeSchema);
  J.keyValue("name", Request.Name);
  J.keyValue("source", Request.Source);
  J.keyValue("target", Request.Target);
  J.keyValue("variant", Request.Variant);
  if (Request.Hotness != 0.0)
    J.keyValue("hotness", Request.Hotness);
  if (Request.DeadlineMillis)
    J.keyValue("deadline_ms", Request.DeadlineMillis);
  if (Request.CollectRemarks)
    J.keyValue("collect_remarks", true);
  if (!Request.WantIR)
    J.keyValue("want_ir", false);
  if (TraceId)
    J.keyValue("trace_id", traceIdHex(TraceId));
  if (ClientRequestId)
    J.keyValue("client_request_id", ClientRequestId);
  J.endObject();
  return J.take();
}

static bool boolField(const JsonValue &Doc, const char *Name, bool Default) {
  const JsonValue *Field = Doc.find(Name);
  if (!Field || !Field->isBool())
    return Default;
  return Field->boolValue();
}

static bool checkSchema(const JsonValue &Doc, std::string &Error) {
  if (!Doc.isObject()) {
    Error = "payload is not a JSON object";
    return false;
  }
  std::string Schema = Doc.stringField("schema");
  if (Schema != kServeSchema) {
    Error = "unexpected payload schema '" + Schema + "'";
    return false;
  }
  return true;
}

bool decodeServeRequest(const std::string &Payload, ServeRequest &Out,
                        std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Payload, Doc, Error))
    return false;
  if (!checkSchema(Doc, Error))
    return false;
  const JsonValue *Source = Doc.find("source");
  if (!Source || !Source->isString()) {
    Error = "request is missing string field 'source'";
    return false;
  }
  Out = ServeRequest();
  Out.Name = Doc.takeStringField("name");
  Out.Source = Doc.takeStringField("source");
  if (const JsonValue *Target = Doc.find("target"))
    if (Target->isString())
      Out.Target = Doc.takeStringField("target");
  if (const JsonValue *Variant = Doc.find("variant"))
    if (Variant->isString())
      Out.Variant = Doc.takeStringField("variant");
  if (const JsonValue *Hotness = Doc.find("hotness"))
    if (Hotness->isNumber())
      Out.Hotness = Hotness->numberValue();
  Out.DeadlineMillis = Doc.uint64Field("deadline_ms");
  Out.CollectRemarks = boolField(Doc, "collect_remarks", false);
  Out.WantIR = boolField(Doc, "want_ir", true);
  Out.TraceId = hexField(Doc, "trace_id");
  Out.ClientRequestId = Doc.uint64Field("client_request_id");
  return true;
}

/// Encodes \p Reply; an ok one carries the artifact members given here,
/// \p StatsMember as encodeStatsMember() wrote it. Empty members are left
/// out.
static std::string encodeReply(const ServeReply &Reply, uint64_t InputIRHash,
                               std::string_view IRText,
                               std::string_view StatsMember,
                               std::string_view RemarksJsonl) {
  JsonWriter J;
  J.reserve(IRText.size() + StatsMember.size() + RemarksJsonl.size() + 256);
  J.beginObject();
  J.keyValue("schema", kServeSchema);
  J.keyValue("ok", Reply.Ok);
  if (!Reply.Ok) {
    J.keyValue("error_kind", serveErrorKindName(Reply.ErrorKind));
    J.keyValue("error", Reply.Error);
  } else {
    J.keyValue("tier", serveTierName(Reply.Tier));
    J.keyValue("ir_hash", traceIdHex(InputIRHash));
    if (!IRText.empty())
      J.keyValue("ir", IRText);
    J.rawMembers(JsonWriter::membersOf(StatsMember));
    if (!RemarksJsonl.empty())
      J.keyValue("remarks_jsonl", RemarksJsonl);
  }
  if (Reply.QueueWaitNanos)
    J.keyValue("queue_wait_ns", Reply.QueueWaitNanos);
  if (Reply.WallNanos)
    J.keyValue("wall_ns", Reply.WallNanos);
  if (Reply.TraceId)
    J.keyValue("trace_id", traceIdHex(Reply.TraceId));
  if (Reply.RequestId)
    J.keyValue("request_id", Reply.RequestId);
  J.endObject();
  return J.take();
}

std::string encodeServeReply(const ServeReply &Reply) {
  if (!Reply.Ok)
    return encodeReply(Reply, 0, {}, {}, {});
  return encodeReply(Reply, Reply.InputIRHash, Reply.IRText,
                     encodeStatsMember(Reply.Stats), Reply.RemarksJsonl);
}

std::string encodeServeReply(const ServeReply &Reply, const CompiledCode &Code,
                             bool WantIR, bool CollectRemarks) {
  auto EncodeStats = [&] { return encodeStatsMember(Code.Stats.entries()); };
  std::string_view IRText = WantIR ? std::string_view(Code.IRText) : "";
  std::string_view RemarksJsonl =
      CollectRemarks ? std::string_view(Code.Remarks) : "";
  if (Reply.Tier == ServeTier::Compiled)
    return encodeReply(Reply, Code.InputIRHash, IRText, EncodeStats(),
                       RemarksJsonl);
  return encodeReply(Reply, Code.InputIRHash, IRText,
                     Code.EncodedStats.get(EncodeStats), RemarksJsonl);
}

bool decodeServeReply(const std::string &Payload, ServeReply &Out,
                      std::string &Error) {
  JsonValue Doc;
  if (!parseJson(Payload, Doc, Error))
    return false;
  if (!checkSchema(Doc, Error))
    return false;
  Out = ServeReply();
  Out.Ok = boolField(Doc, "ok", false);
  if (!Out.Ok) {
    if (!serveErrorKindByName(Doc.stringField("error_kind"), Out.ErrorKind))
      Out.ErrorKind = ServeErrorKind::Protocol;
    Out.Error = Doc.takeStringField("error");
  } else {
    if (!serveTierByName(Doc.stringField("tier"), Out.Tier))
      Out.Tier = ServeTier::Compiled;
    Out.InputIRHash = hexField(Doc, "ir_hash");
    Out.IRText = Doc.takeStringField("ir");
    Out.RemarksJsonl = Doc.takeStringField("remarks_jsonl");
    if (JsonValue *Stats = Doc.find("stats")) {
      if (!Stats->isArray()) {
        Error = "reply field 'stats' is not an array";
        return false;
      }
      Out.Stats.reserve(Stats->array().size());
      for (JsonValue &Item : Stats->array()) {
        if (!Item.isObject()) {
          Error = "reply stats entry is not an object";
          return false;
        }
        StatEntry &Entry = Out.Stats.emplace_back();
        Entry.Pass = Item.takeStringField("pass");
        Entry.Name = Item.takeStringField("name");
        Entry.Value = Item.uint64Field("value");
      }
    }
  }
  Out.QueueWaitNanos = Doc.uint64Field("queue_wait_ns");
  Out.WallNanos = Doc.uint64Field("wall_ns");
  Out.TraceId = hexField(Doc, "trace_id");
  Out.RequestId = Doc.uint64Field("request_id");
  return true;
}

} // namespace sxe

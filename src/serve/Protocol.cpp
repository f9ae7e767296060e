//===- serve/Protocol.cpp - Compile-serving wire protocol -----------------===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "support/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

static bool writeAll(int Fd, const char *Data, size_t Len,
                     std::string &Error) {
  size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::write(Fd, Data + Done, Len - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Error = std::string("write: ") + std::strerror(errno);
      return false;
    }
    Done += static_cast<size_t>(N);
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
  if (!writeAll(Fd, Header, sizeof(Header), Error))
    return false;
  return Payload.empty() || writeAll(Fd, Payload.data(), Payload.size(), Error);
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

static std::string hex16(uint64_t Value) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Value));
  return Buf;
}

/// A hex id (trace id, IR hash): absent or malformed decodes as 0 so
/// pre-trace peers interoperate.
static uint64_t hexField(const JsonValue &Doc, const char *Name) {
  const JsonValue *Field = Doc.find(Name);
  if (!Field || !Field->isString())
    return 0;
  return std::strtoull(Field->stringValue().c_str(), nullptr, 16);
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
    J.keyValue("trace_id", hex16(TraceId));
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

std::string encodeServeReply(const ServeReply &Reply) {
  JsonWriter J;
  J.beginObject();
  J.keyValue("schema", kServeSchema);
  J.keyValue("ok", Reply.Ok);
  if (!Reply.Ok) {
    J.keyValue("error_kind", serveErrorKindName(Reply.ErrorKind));
    J.keyValue("error", Reply.Error);
  }
  if (Reply.Ok) {
    J.keyValue("tier", serveTierName(Reply.Tier));
    J.keyValue("ir_hash", hex16(Reply.InputIRHash));
    if (!Reply.IRText.empty())
      J.keyValue("ir", Reply.IRText);
    if (!Reply.Stats.empty()) {
      J.key("stats");
      J.beginArray();
      for (const StatEntry &Entry : Reply.Stats) {
        J.beginObject();
        J.keyValue("pass", Entry.Pass);
        J.keyValue("name", Entry.Name);
        J.keyValue("value", Entry.Value);
        if (Entry.IsFlag)
          J.keyValue("flag", true);
        J.endObject();
      }
      J.endArray();
    }
    if (!Reply.RemarksJsonl.empty())
      J.keyValue("remarks_jsonl", Reply.RemarksJsonl);
  }
  if (Reply.QueueWaitNanos)
    J.keyValue("queue_wait_ns", Reply.QueueWaitNanos);
  if (Reply.WallNanos)
    J.keyValue("wall_ns", Reply.WallNanos);
  if (Reply.TraceId)
    J.keyValue("trace_id", hex16(Reply.TraceId));
  if (Reply.RequestId)
    J.keyValue("request_id", Reply.RequestId);
  J.endObject();
  return J.take();
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
        Entry.IsFlag = boolField(Item, "flag", false);
      }
    }
  }
  Out.QueueWaitNanos = Doc.uint64Field("queue_wait_ns");
  Out.WallNanos = Doc.uint64Field("wall_ns");
  Out.TraceId = hexField(Doc, "trace_id");
  Out.RequestId = Doc.uint64Field("request_id");
  return true;
}

//===----------------------------------------------------------------------===//
// Name resolution
//===----------------------------------------------------------------------===//

const TargetInfo *serveTargetByName(const std::string &Name) {
  if (Name == "ia64")
    return &TargetInfo::ia64();
  if (Name == "ppc64")
    return &TargetInfo::ppc64();
  if (Name == "generic64")
    return &TargetInfo::generic64();
  if (Name == "x86_64")
    return &TargetInfo::x86_64();
  return nullptr;
}

bool serveVariantByName(const std::string &Name, Variant &Out) {
  for (Variant V : AllVariants) {
    if (Name == variantName(V)) {
      Out = V;
      return true;
    }
  }
  // Convenient shorthands matching sxetool's CLI.
  if (Name == "all") {
    Out = Variant::All;
    return true;
  }
  if (Name == "baseline") {
    Out = Variant::Baseline;
    return true;
  }
  if (Name == "first") {
    Out = Variant::FirstAlgorithm;
    return true;
  }
  if (Name == "basic") {
    Out = Variant::BasicUdDu;
    return true;
  }
  if (Name == "array") {
    Out = Variant::Array;
    return true;
  }
  return false;
}

} // namespace sxe

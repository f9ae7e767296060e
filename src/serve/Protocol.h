//===- serve/Protocol.h - Compile-serving wire protocol ----------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire vocabulary of the compile-serving daemon (serve/Daemon.h): a
/// small length-prefixed framed protocol over a unix-domain stream
/// socket. Every frame is
///
///     +------+------+----------+--------+-----------------+
///     | 'S'  | 'X'  | 'E' 'F'  | type   | reserved[3]     |  8 bytes
///     +------+------+----------+--------+-----------------+
///     | payload length, uint32 little-endian               |  4 bytes
///     +----------------------------------------------------+
///     | payload (JSON document, schema sxe.serve.v1)       |
///     +----------------------------------------------------+
///
/// Compile requests carry IR source + target + variant + deadline budget;
/// replies carry the artifact (optimized IR text, per-pass stats, remark
/// stream) or a *typed* error: `overload` (load shed at admission),
/// `deadline` (budget expired in queue), `shutdown` (daemon draining),
/// `parse`/`pipeline` (the compile itself failed), `protocol` (malformed
/// frame). Ping/Pong probe liveness, MetricsQuery returns the daemon's
/// Prometheus exposition, Shutdown asks for a graceful drain.
///
/// The payload length is bounded (kMaxFrameBytes) so a corrupt header
/// cannot make a peer allocate unbounded memory; readFrame() fails
/// cleanly on bad magic, unknown type, oversize, or truncation.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_SERVE_PROTOCOL_H
#define SXE_SERVE_PROTOCOL_H

#include "pm/PassStats.h"

#include <cstdint>
#include <string>
#include <vector>

namespace sxe {

/// Schema tag of every frame payload.
inline constexpr const char *kServeSchema = "sxe.serve.v1";

/// Hard ceiling on one frame's payload (64 MiB).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

enum class FrameType : uint8_t {
  Compile = 1,
  CompileReply = 2,
  Ping = 3,
  Pong = 4,
  MetricsQuery = 5,
  MetricsReply = 6,
  Shutdown = 7,
  ShutdownAck = 8,
  /// Asks the daemon to dump its flight recorder (payload ignored);
  /// DumpReply carries the sxe.flight.v1 JSONL document verbatim.
  Dump = 9,
  DumpReply = 10,
};

/// Typed failure taxonomy of a compile reply.
enum class ServeErrorKind : uint8_t {
  None,     ///< Ok reply.
  Overload, ///< Load shed at admission (queue full or p99 over budget).
  Deadline, ///< Deadline budget expired while queued.
  Shutdown, ///< Daemon is draining; request refused.
  Parse,    ///< The submitted IR did not parse.
  Pipeline, ///< Verify-each caught a broken pass.
  Protocol, ///< Malformed request frame.
};

const char *serveErrorKindName(ServeErrorKind Kind);
bool serveErrorKindByName(const std::string &Name, ServeErrorKind &Out);

/// Which tier served an Ok reply.
enum class ServeTier : uint8_t {
  Compiled,   ///< The pipeline ran.
  Memory,     ///< In-memory CodeCache hit.
  Persistent, ///< On-disk PersistentCache hit.
};

const char *serveTierName(ServeTier Tier);
bool serveTierByName(const std::string &Name, ServeTier &Out);

/// One compile submission.
struct ServeRequest {
  std::string Name;   ///< Display label (file name, ...).
  std::string Source; ///< `.sxir` module text.
  std::string Target = "ia64";
  std::string Variant = "all"; ///< variantByName() label or shorthand.
  double Hotness = 0.0;
  /// Relative deadline budget in milliseconds; 0 = the daemon's default.
  uint64_t DeadlineMillis = 0;
  bool CollectRemarks = false;
  /// False suppresses the optimized IR text in the reply (stats-only
  /// probes and benchmark loops keep frames small).
  bool WantIR = true;
  /// Client-minted distributed trace id (0 = untraced / legacy client;
  /// the daemon mints one so every request is still joinable). Carried
  /// on the wire as 16 lowercase hex digits under "trace_id".
  uint64_t TraceId = 0;
  /// Client-side request sequence number, echoed in events for
  /// debugging multi-request clients (0 = unset).
  uint64_t ClientRequestId = 0;
};

/// One compile reply.
struct ServeReply {
  bool Ok = false;
  ServeErrorKind ErrorKind = ServeErrorKind::None;
  std::string Error;
  ServeTier Tier = ServeTier::Compiled;
  std::string IRText;
  uint64_t InputIRHash = 0;
  /// Per-pass counters of the producing run (replayed on cache hits).
  std::vector<StatEntry> Stats;
  /// sxe.remarks.v1 JSONL stream (empty unless CollectRemarks).
  std::string RemarksJsonl;
  uint64_t QueueWaitNanos = 0;
  uint64_t WallNanos = 0;
  /// The trace id this request ran under (the client's, or the one the
  /// daemon minted for a legacy id-less request). 0 only from pre-trace
  /// daemons.
  uint64_t TraceId = 0;
  /// Daemon-assigned dense request sequence number (0 from pre-trace
  /// daemons or for requests refused before admission bookkeeping).
  uint64_t RequestId = 0;
};

//===----------------------------------------------------------------------===//
// Framing over a connected stream socket
//===----------------------------------------------------------------------===//

/// Writes one frame; loops over partial writes. False + \p Error on I/O
/// failure or oversize payload.
bool writeFrame(int Fd, FrameType Type, const std::string &Payload,
                std::string &Error);

/// Reads one frame; loops over partial reads. False + \p Error on EOF,
/// truncation, bad magic, unknown type, or oversize length. A clean EOF
/// before any header byte sets \p Error to "eof".
bool readFrame(int Fd, FrameType &Type, std::string &Payload,
               std::string &Error);

//===----------------------------------------------------------------------===//
// Payload encoding
//===----------------------------------------------------------------------===//

std::string encodeServeRequest(const ServeRequest &Request);
/// Encodes \p Request under the given trace identity instead of its own,
/// so a client can stamp ids without copying the request and its source.
std::string encodeServeRequest(const ServeRequest &Request, uint64_t TraceId,
                               uint64_t ClientRequestId);
bool decodeServeRequest(const std::string &Payload, ServeRequest &Out,
                        std::string &Error);

std::string encodeServeReply(const ServeReply &Reply);
bool decodeServeReply(const std::string &Payload, ServeReply &Out,
                      std::string &Error);

} // namespace sxe

#endif // SXE_SERVE_PROTOCOL_H

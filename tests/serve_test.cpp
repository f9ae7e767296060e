//===- tests/serve_test.cpp - Compile-serving subsystem -------------------------===//
//
// Locks the serve/ subsystem's contracts:
//
//   - framing: header/payload round trips over a socketpair; bad magic,
//     unknown type, oversize length, and truncation fail cleanly;
//   - payload codecs: ServeRequest/ServeReply round-trip including error
//     kinds, tiers, stats, and remark streams; an overflowing number is a
//     decode error and out-of-range counts read as absent;
//   - admission control: depth bound and queue-wait-p99-vs-budget gate,
//     typed OverloadError causes, sliding-window bookkeeping;
//   - the daemon: ping, compile replies byte-identical to the inline
//     reference service, typed parse/protocol errors (a module that
//     parses but does not verify is a parse error and is never cached),
//     deadline expiry
//     under a saturated queue, a typed protocol reply (and a live daemon)
//     after a frame whose number overflows, load-shed rejection sharing the
//     service's Rejected ledger, graceful drain (every accepted request
//     answered, socket unlinked), a closed connection's handler thread
//     released before stop() (bounded VmSize over 64 connections),
//     restart-with-warm-persistent-cache, and a source-key hit whose reply
//     and lifecycle match a structural hit's;
//   - request-scoped tracing: trace/request ids round-trip the wire (and
//     legacy id-less payloads decode to absent), the daemon echoes a
//     client-minted id and mints one for legacy clients, lifecycle events
//     land in the structured log under the request's ids, the Dump frame
//     returns a parseable sxe.flight.v1 recording, a daemon with no
//     artifact paths retains no spans or events while its flight ring
//     still holds each request's lifecycle, and the per-request span set
//     is identical at 1 and 4 workers (stitching determinism).
//
//===-----------------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/IRPrinter.h"
#include "jit/CompileService.h"
#include "jit/PersistentCache.h"
#include "obs/Remarks.h"
#include "obs/TraceContext.h"
#include "parser/Parser.h"
#include "serve/Admission.h"
#include "serve/Client.h"
#include "serve/Daemon.h"
#include "support/Json.h"
#include "tests/TestHelpers.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <thread>
#include <vector>
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace sxe;
namespace fs = std::filesystem;

namespace {

/// A fresh temp directory per test (socket + cache files), removed on
/// destruction.
struct TempDir {
  fs::path Path;
  explicit TempDir(const char *Tag) {
    static int Counter = 0;
    Path = fs::temp_directory_path() /
           ("sxe-serve-test-" + std::to_string(::getpid()) + "-" + Tag +
            "-" + std::to_string(Counter++));
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string str() const { return Path.string(); }
  std::string sock() const { return (Path / "serve.sock").string(); }
  std::string file(const char *Name) const { return (Path / Name).string(); }
};

/// Gives the daemon both artifact paths under \p Dir, which turns on its
/// spans and its retained event log.
void recordArtifactsIn(ServeDaemonOptions &Options, const TempDir &Dir) {
  Options.TraceFile = Dir.file("daemon.trace.json");
  Options.EventsFile = Dir.file("daemon.events.jsonl");
}

/// `.sxir` source with \p Funcs kernels of \p Chain dependent add+load
/// pairs each — big enough to keep a worker busy for a measurable while.
std::string makeHeavySource(unsigned Funcs, unsigned Chain,
                            int32_t Salt = 0) {
  Module M("heavy");
  for (unsigned F = 0; F < Funcs; ++F) {
    Function *Fn = M.createFunction("kernel" + std::to_string(F), Type::I32);
    Reg A = Fn->addParam(Type::ArrayRef, "a");
    Reg I = Fn->addParam(Type::I32, "i");
    IRBuilder B(Fn);
    B.startBlock("entry");
    Reg T = B.add32(I, B.constI32(Salt + 1), "t0");
    Reg V = T;
    for (unsigned C = 0; C < Chain; ++C) {
      V = B.arrayLoad(Type::I32, A, T, 'v' + std::to_string(C));
      T = B.add32(V, B.constI32(static_cast<int32_t>(C) + Salt),
                  't' + std::to_string(C + 1));
    }
    B.ret(V);
  }
  return printModule(M);
}

/// A raw stream connection to \p Sock, for tests that speak the wire
/// protocol directly; -1 on failure.
int connectRaw(const std::string &Sock) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Sock.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Sock.c_str(), Sock.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd >= 0 &&
      ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    Fd = -1;
  }
  return Fd;
}

std::string smallSource(int32_t Bias = 1) {
  return makeHeavySource(/*Funcs=*/1, /*Chain=*/1, /*Salt=*/Bias);
}

/// Inline (jobs=0) reference compile of \p Source under the default
/// serve configuration (variant all, ia64).
std::string referenceIR(const std::string &Source) {
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.PM.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "ref";
  Request.Source = Source;
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  EXPECT_TRUE(Result.ok()) << Result.Error;
  return Result.Code ? Result.Code->IRText : std::string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, FrameRoundTripsOverSocketpair) {
  int Fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::string Error;
  std::string Payload = "{\"schema\":\"sxe.serve.v1\"}";
  ASSERT_TRUE(writeFrame(Fds[0], FrameType::Compile, Payload, Error))
      << Error;
  FrameType Type;
  std::string Loaded;
  ASSERT_TRUE(readFrame(Fds[1], Type, Loaded, Error)) << Error;
  EXPECT_EQ(FrameType::Compile, Type);
  EXPECT_EQ(Payload, Loaded);

  // Empty payloads (Ping) work too.
  ASSERT_TRUE(writeFrame(Fds[0], FrameType::Ping, "", Error)) << Error;
  ASSERT_TRUE(readFrame(Fds[1], Type, Loaded, Error)) << Error;
  EXPECT_EQ(FrameType::Ping, Type);
  EXPECT_TRUE(Loaded.empty());
  ::close(Fds[0]);
  ::close(Fds[1]);
}

TEST(ServeProtocol, RejectsBadMagicUnknownTypeAndOversize) {
  int Fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::string Error;
  FrameType Type;
  std::string Payload;

  // Bad magic.
  const char BadMagic[12] = {'N', 'O', 'P', 'E', 1, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(12, ::write(Fds[0], BadMagic, 12));
  EXPECT_FALSE(readFrame(Fds[1], Type, Payload, Error));
  EXPECT_NE(std::string::npos, Error.find("magic"));

  // Unknown frame type.
  const char BadType[12] = {'S', 'X', 'E', 'F', 99, 0, 0, 0, 0, 0, 0, 0};
  ASSERT_EQ(12, ::write(Fds[0], BadType, 12));
  EXPECT_FALSE(readFrame(Fds[1], Type, Payload, Error));
  EXPECT_NE(std::string::npos, Error.find("unknown frame type"));

  // Length over the 64 MiB guard: must fail without allocating/reading.
  char Oversize[12] = {'S', 'X', 'E', 'F', 1, 0, 0, 0, 0, 0, 0, 0};
  Oversize[8] = Oversize[9] = Oversize[10] = Oversize[11] =
      static_cast<char>(0xFF);
  ASSERT_EQ(12, ::write(Fds[0], Oversize, 12));
  EXPECT_FALSE(readFrame(Fds[1], Type, Payload, Error));
  EXPECT_NE(std::string::npos, Error.find("64 MiB"));

  // Truncated frame: header promises bytes, peer closes early.
  const char Truncated[12] = {'S', 'X', 'E', 'F', 3, 0, 0, 0, 10, 0, 0, 0};
  ASSERT_EQ(12, ::write(Fds[0], Truncated, 12));
  ::close(Fds[0]);
  EXPECT_FALSE(readFrame(Fds[1], Type, Payload, Error));
  EXPECT_EQ("truncated frame", Error);
  ::close(Fds[1]);
}

TEST(ServeProtocol, CleanEofIsDistinguishable) {
  int Fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  ::close(Fds[0]);
  FrameType Type;
  std::string Payload, Error;
  EXPECT_FALSE(readFrame(Fds[1], Type, Payload, Error));
  EXPECT_EQ("eof", Error);
  ::close(Fds[1]);
}

TEST(ServeProtocol, FrameWrittenOneByteAtATimeReadsBack) {
  // A peer may send a frame in any number of writes; a reader that only
  // worked for single-write frames would pass every other test here.
  int Fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
  std::string Payload = "{\"schema\":\"sxe.serve.v1\",\"ok\":true}";
  std::string Frame = {'S', 'X', 'E', 'F',
                       static_cast<char>(FrameType::CompileReply), 0, 0, 0,
                       static_cast<char>(Payload.size()), 0, 0, 0};
  Frame += Payload;
  std::thread Writer([&] {
    for (char Byte : Frame) {
      ASSERT_EQ(1, ::write(Fds[0], &Byte, 1));
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  FrameType Type;
  std::string Loaded, Error;
  EXPECT_TRUE(readFrame(Fds[1], Type, Loaded, Error)) << Error;
  Writer.join();
  EXPECT_EQ(FrameType::CompileReply, Type);
  EXPECT_EQ(Payload, Loaded);
  ::close(Fds[0]);
  ::close(Fds[1]);
}

//===----------------------------------------------------------------------===//
// Payload codecs
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, RequestRoundTrips) {
  ServeRequest Request;
  Request.Name = "mod.sxir";
  Request.Source = "func @f() -> i32 { ... }";
  Request.Target = "ppc64";
  Request.Variant = "array";
  Request.Hotness = 42.5;
  Request.DeadlineMillis = 250;
  Request.CollectRemarks = true;
  Request.WantIR = false;

  ServeRequest Loaded;
  std::string Error;
  ASSERT_TRUE(decodeServeRequest(encodeServeRequest(Request), Loaded, Error))
      << Error;
  EXPECT_EQ(Request.Name, Loaded.Name);
  EXPECT_EQ(Request.Source, Loaded.Source);
  EXPECT_EQ(Request.Target, Loaded.Target);
  EXPECT_EQ(Request.Variant, Loaded.Variant);
  EXPECT_EQ(Request.Hotness, Loaded.Hotness);
  EXPECT_EQ(Request.DeadlineMillis, Loaded.DeadlineMillis);
  EXPECT_EQ(Request.CollectRemarks, Loaded.CollectRemarks);
  EXPECT_EQ(Request.WantIR, Loaded.WantIR);

  // Defaults materialize for omitted fields.
  ASSERT_TRUE(decodeServeRequest(
      "{\"schema\":\"sxe.serve.v1\",\"source\":\"x\"}", Loaded, Error))
      << Error;
  EXPECT_EQ("ia64", Loaded.Target);
  EXPECT_EQ("all", Loaded.Variant);
  EXPECT_TRUE(Loaded.WantIR);
  EXPECT_EQ(0u, Loaded.DeadlineMillis);

  // Missing source is a hard error; so is a wrong schema.
  EXPECT_FALSE(
      decodeServeRequest("{\"schema\":\"sxe.serve.v1\"}", Loaded, Error));
  EXPECT_FALSE(decodeServeRequest("{\"schema\":\"other\",\"source\":\"x\"}",
                                  Loaded, Error));
}

TEST(ServeProtocol, ReplyRoundTripsOkAndError) {
  ServeReply Reply;
  Reply.Ok = true;
  Reply.Tier = ServeTier::Persistent;
  Reply.IRText = "func @f() -> i32 {}";
  Reply.InputIRHash = 0xdeadbeefcafe1234ull;
  StatEntry Entry;
  Entry.Pass = "elim-uddu";
  Entry.Name = "sext_eliminated";
  Entry.Value = 7;
  Reply.Stats.push_back(Entry);
  Reply.RemarksJsonl = "{\"schema\":\"sxe.remarks.v1\"}\n";
  Reply.QueueWaitNanos = 1234;
  Reply.WallNanos = 56789;

  ServeReply Loaded;
  std::string Error;
  ASSERT_TRUE(decodeServeReply(encodeServeReply(Reply), Loaded, Error))
      << Error;
  EXPECT_TRUE(Loaded.Ok);
  EXPECT_EQ(ServeTier::Persistent, Loaded.Tier);
  EXPECT_EQ(Reply.IRText, Loaded.IRText);
  EXPECT_EQ(Reply.InputIRHash, Loaded.InputIRHash);
  ASSERT_EQ(1u, Loaded.Stats.size());
  EXPECT_EQ("sext_eliminated", Loaded.Stats[0].Name);
  EXPECT_EQ(7u, Loaded.Stats[0].Value);
  EXPECT_EQ(std::string::npos, encodeServeReply(Reply).find("\"flag\""));
  EXPECT_EQ(Reply.RemarksJsonl, Loaded.RemarksJsonl);
  EXPECT_EQ(1234u, Loaded.QueueWaitNanos);
  EXPECT_EQ(56789u, Loaded.WallNanos);

  ServeReply ErrorReply;
  ErrorReply.Ok = false;
  ErrorReply.ErrorKind = ServeErrorKind::Overload;
  ErrorReply.Error = "queue full";
  ASSERT_TRUE(
      decodeServeReply(encodeServeReply(ErrorReply), Loaded, Error))
      << Error;
  EXPECT_FALSE(Loaded.Ok);
  EXPECT_EQ(ServeErrorKind::Overload, Loaded.ErrorKind);
  EXPECT_EQ("queue full", Loaded.Error);

  // An older daemon marked mode counters with "flag": the key is
  // ignored and the value still decodes.
  ASSERT_TRUE(decodeServeReply(
      "{\"schema\":\"sxe.serve.v1\",\"ok\":true,\"stats\":[{\"pass\":"
      "\"insertion\",\"name\":\"pde_variant\",\"value\":1,\"flag\":true}]}",
      Loaded, Error))
      << Error;
  ASSERT_EQ(1u, Loaded.Stats.size());
  EXPECT_EQ("pde_variant", Loaded.Stats[0].Name);
  EXPECT_EQ(1u, Loaded.Stats[0].Value);
}

TEST(ServeProtocol, HitReplySplicesTheBytesOfTheFilledReply) {
  CompileServiceOptions Options;
  Options.Jobs = 0;
  Options.PM.CollectRemarks = true;
  CompileService Service(Options);
  CompileRequest Request;
  Request.Name = "generated_small";
  Request.Source = test::corpusSource("generated_small");
  Request.Config = PipelineConfig::forVariant(Variant::All);
  CompileResult Result = Service.enqueue(std::move(Request)).get();
  ASSERT_TRUE(Result.ok()) << Result.Error;
  const CompiledCode &Code = *Result.Code;
  ASSERT_FALSE(Code.Stats.entries().empty());
  ASSERT_GT(Code.Remarks.size(), remarksHeaderLine().size());
  // The same artifact as a persistent hit after a restart: written by one
  // tier instance, loaded by a fresh one on the same directory.
  TempDir Dir("splice");
  PersistentCache(PersistentCacheOptions{Dir.str()}).insert("key", Code);
  std::shared_ptr<const CompiledCode> Restored =
      PersistentCache(PersistentCacheOptions{Dir.str()}).lookup("key");
  ASSERT_TRUE(Restored);
  // An artifact with nothing but its hash leaves every optional member out.
  CompiledCode Bare;
  Bare.InputIRHash = 42;
  // Each artifact, and the one whose fields fill the expected reply.
  const std::pair<const CompiledCode *, const CompiledCode *> Artifacts[] = {
      {&Code, &Code}, {Restored.get(), &Code}, {&Bare, &Bare}};

  for (const auto &[Artifact, Source] : Artifacts)
    for (ServeTier Tier : {ServeTier::Memory, ServeTier::Persistent,
                           ServeTier::Compiled})
      for (bool WantIR : {false, true})
        for (bool CollectRemarks : {false, true}) {
          SCOPED_TRACE(std::string(serveTierName(Tier)) + " ir=" +
                       std::to_string(WantIR) +
                       " remarks=" + std::to_string(CollectRemarks) +
                       (Artifact == &Bare   ? " bare"
                        : Artifact == &Code ? ""
                                            : " restored"));
          ServeReply Reply;
          Reply.Ok = true;
          Reply.Tier = Tier;
          Reply.QueueWaitNanos = Tier == ServeTier::Memory ? 0 : 1234;
          Reply.WallNanos = 5678;
          Reply.TraceId = 0x0123456789abcdefull;
          Reply.RequestId = 9;
          ServeReply Filled = Reply;
          Filled.InputIRHash = Source->InputIRHash;
          if (WantIR)
            Filled.IRText = Source->IRText;
          Filled.Stats = Source->Stats.entries();
          if (CollectRemarks)
            Filled.RemarksJsonl = Source->Remarks;
          std::string Expected = encodeServeReply(Filled);

          // The first hit builds the memo; the second splices from it.
          for (int Hit = 0; Hit < 2; ++Hit)
            EXPECT_EQ(Expected, encodeServeReply(Reply, *Artifact, WantIR,
                                                 CollectRemarks));

          ServeReply Loaded;
          std::string Error;
          ASSERT_TRUE(decodeServeReply(
              encodeServeReply(Reply, *Artifact, WantIR, CollectRemarks),
              Loaded, Error))
              << Error;
          EXPECT_TRUE(Loaded.Ok);
          EXPECT_EQ(Tier, Loaded.Tier);
          EXPECT_EQ(Filled.InputIRHash, Loaded.InputIRHash);
          EXPECT_EQ(Filled.IRText, Loaded.IRText);
          ASSERT_EQ(Filled.Stats.size(), Loaded.Stats.size());
          for (size_t Index = 0; Index < Filled.Stats.size(); ++Index) {
            EXPECT_EQ(Filled.Stats[Index].Pass, Loaded.Stats[Index].Pass);
            EXPECT_EQ(Filled.Stats[Index].Name, Loaded.Stats[Index].Name);
            EXPECT_EQ(Filled.Stats[Index].Value, Loaded.Stats[Index].Value);
          }
          EXPECT_EQ(Filled.RemarksJsonl, Loaded.RemarksJsonl);
          EXPECT_EQ(Filled.QueueWaitNanos, Loaded.QueueWaitNanos);
          EXPECT_EQ(Filled.WallNanos, Loaded.WallNanos);
          EXPECT_EQ(Filled.TraceId, Loaded.TraceId);
          EXPECT_EQ(Filled.RequestId, Loaded.RequestId);
        }

  // A copy of an artifact keeps none of the original's encodings.
  CompiledCode Copy = Code;
  Copy.InputIRHash = 7;
  ServeReply Reply;
  Reply.Ok = true;
  Reply.Tier = ServeTier::Memory;
  ServeReply Loaded;
  std::string Error;
  ASSERT_TRUE(decodeServeReply(encodeServeReply(Reply, Copy, false, false),
                               Loaded, Error))
      << Error;
  EXPECT_EQ(7u, Loaded.InputIRHash);

  // Concurrent first hits on one artifact race to build its memo; every
  // one of them sends the same bytes.
  CompiledCode Fresh = Code;
  Reply.QueueWaitNanos = 0;
  std::string Expected = encodeServeReply(Reply, Code, true, true);
  std::vector<std::string> Encoded(4);
  std::vector<std::thread> Threads;
  for (std::string &Out : Encoded)
    Threads.emplace_back(
        [&] { Out = encodeServeReply(Reply, Fresh, true, true); });
  for (std::thread &Thread : Threads)
    Thread.join();
  for (const std::string &Out : Encoded)
    EXPECT_EQ(Expected, Out);
}

TEST(ServeProtocol, OutOfRangeNumbersDecodeWithoutUndefinedCasts) {
  ServeRequest Loaded;
  std::string Error;
  // A double overflow is a decode error, not an exception.
  EXPECT_FALSE(decodeServeRequest("{\"schema\":\"sxe.serve.v1\",\"source\":"
                                  "\"x\",\"hotness\": 1e999}",
                                  Loaded, Error));
  EXPECT_NE(std::string::npos, Error.find("number out of range")) << Error;

  // Counts outside uint64_t read as absent.
  for (const char *Value : {"1e300", "-5", "18446744073709551616"}) {
    std::string Payload = std::string("{\"schema\":\"sxe.serve.v1\","
                                      "\"source\":\"x\",\"deadline_ms\": ") +
                          Value + ", \"client_request_id\": " + Value + "}";
    ASSERT_TRUE(decodeServeRequest(Payload, Loaded, Error)) << Error;
    EXPECT_EQ(0u, Loaded.DeadlineMillis) << Value;
    EXPECT_EQ(0u, Loaded.ClientRequestId) << Value;
  }

  ServeReply Reply;
  ASSERT_TRUE(decodeServeReply(
      "{\"schema\":\"sxe.serve.v1\",\"ok\":true,\"stats\":[{\"pass\":"
      "\"p\",\"name\":\"n\",\"value\":-1}],\"wall_ns\":1e300}",
      Reply, Error))
      << Error;
  ASSERT_EQ(1u, Reply.Stats.size());
  EXPECT_EQ(0u, Reply.Stats[0].Value);
  EXPECT_EQ(0u, Reply.WallNanos);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(Admission, BoundsInFlightDepth) {
  AdmissionOptions Options;
  Options.MaxQueueDepth = 2;
  AdmissionController Admission(Options);
  OverloadError Err;
  EXPECT_TRUE(Admission.tryAdmit(0, Err));
  EXPECT_TRUE(Admission.tryAdmit(0, Err));
  EXPECT_EQ(2u, Admission.depth());
  EXPECT_FALSE(Admission.tryAdmit(0, Err));
  EXPECT_EQ(OverloadError::Cause::QueueFull, Err.TheCause);
  EXPECT_EQ(2u, Err.QueueDepth);
  EXPECT_FALSE(Err.message().empty());

  Admission.onComplete(/*QueueWaitNanos=*/1000);
  EXPECT_EQ(1u, Admission.depth());
  EXPECT_TRUE(Admission.tryAdmit(0, Err));
  EXPECT_EQ(2u, Admission.depth());
}

TEST(Admission, ShedsWhenQueueWaitP99ExceedsBudget) {
  AdmissionOptions Options;
  Options.MaxQueueDepth = 100;
  Options.WindowSize = 100;
  AdmissionController Admission(Options);
  OverloadError Err;

  // Feed 100 queue-wait samples of 10ms.
  for (int I = 0; I < 100; ++I) {
    ASSERT_TRUE(Admission.tryAdmit(0, Err));
    Admission.onComplete(10'000'000);
  }
  EXPECT_EQ(10'000'000u, Admission.queueWaitP99Nanos());

  // A 5ms budget is infeasible, a 20ms budget is fine, no budget skips
  // the gate.
  EXPECT_FALSE(Admission.tryAdmit(5'000'000, Err));
  EXPECT_EQ(OverloadError::Cause::DeadlineBudget, Err.TheCause);
  EXPECT_EQ(10'000'000u, Err.QueueWaitP99Nanos);
  EXPECT_EQ(5'000'000u, Err.DeadlineBudgetNanos);
  EXPECT_TRUE(Admission.tryAdmit(20'000'000, Err));
  EXPECT_TRUE(Admission.tryAdmit(0, Err));
}

TEST(Admission, DefaultDeadlineAppliesToUnboundedRequests) {
  AdmissionOptions Options;
  Options.DefaultDeadlineNanos = 5'000'000;
  Options.WindowSize = 4;
  AdmissionController Admission(Options);
  OverloadError Err;
  for (int I = 0; I < 4; ++I) {
    ASSERT_TRUE(Admission.tryAdmit(20'000'000, Err));
    Admission.onComplete(10'000'000);
  }
  // No explicit budget -> the 5ms default gates against the 10ms p99.
  EXPECT_FALSE(Admission.tryAdmit(0, Err));
  EXPECT_EQ(OverloadError::Cause::DeadlineBudget, Err.TheCause);
}

//===----------------------------------------------------------------------===//
// Daemon end-to-end
//===----------------------------------------------------------------------===//

TEST(ServeDaemon, PingCompileAndTypedErrors) {
  TempDir Dir("basic");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 2;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  EXPECT_TRUE(Client.ping(Error)) << Error;

  // A compile reply is byte-identical to the inline reference service.
  std::string Source = smallSource();
  ServeRequest Request;
  Request.Name = "small";
  Request.Source = Source;
  Request.CollectRemarks = true;
  ServeReply Reply;
  ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
  ASSERT_TRUE(Reply.Ok) << Reply.Error;
  EXPECT_EQ(ServeTier::Compiled, Reply.Tier);
  EXPECT_EQ(referenceIR(Source), Reply.IRText);
  EXPECT_NE(0u, Reply.InputIRHash);
  EXPECT_FALSE(Reply.Stats.empty());
  EXPECT_FALSE(Reply.RemarksJsonl.empty());

  // Same module again: served from the memory tier, same bytes.
  ServeReply Again;
  ASSERT_TRUE(Client.compile(Request, Again, Error)) << Error;
  ASSERT_TRUE(Again.Ok);
  EXPECT_EQ(ServeTier::Memory, Again.Tier);
  EXPECT_EQ(Reply.IRText, Again.IRText);
  EXPECT_EQ(Reply.RemarksJsonl, Again.RemarksJsonl);

  // Unparseable IR -> typed parse error.
  ServeRequest Broken = Request;
  Broken.Source = "this is not sxir";
  ASSERT_TRUE(Client.compile(Broken, Reply, Error)) << Error;
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(ServeErrorKind::Parse, Reply.ErrorKind);

  // Unknown target / variant -> typed protocol error.
  ServeRequest BadTarget = Request;
  BadTarget.Target = "vax";
  ASSERT_TRUE(Client.compile(BadTarget, Reply, Error)) << Error;
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(ServeErrorKind::Protocol, Reply.ErrorKind);

  // Metrics round trip carries the serve counters.
  std::string Prom;
  ASSERT_TRUE(Client.fetchMetrics(Prom, Error)) << Error;
  EXPECT_NE(std::string::npos, Prom.find("sxe_serve_requests_total"));
  EXPECT_NE(std::string::npos, Prom.find("sxe_rejects_total"));

  Daemon.stop();
  EXPECT_FALSE(fs::exists(Dir.sock()));
}

TEST(ServeDaemon, ModulesThatParseButDoNotVerifyAreRejectedAndNotCached) {
  // Each parses; each breaks one verifier rule.
  const std::pair<const char *, const char *> Shapes[] = {
      {"arrayload-on-i32", "func @main() -> i32 {\n"
                           "  reg %i: i32\n  reg %v: i32\n"
                           "entry:\n  %i = const.i32 0\n"
                           "  %v = arrayload.i32 %i, %i\n  ret %v\n}\n"},
      {"call-arity", "func @f(%a: i32, %b: i32) -> i32 {\n"
                     "entry:\n  ret %a\n}\n"
                     "func @main() -> i32 {\n"
                     "  reg %x: i32\n  reg %r: i32\n"
                     "entry:\n  %x = const.i32 1\n"
                     "  %r = call @f(%x)\n  ret %r\n}\n"},
      {"add-on-f64", "func @main() -> i32 {\n"
                     "  reg %d: f64\n  reg %r: i32\n"
                     "entry:\n  %d = fconst 1.5\n"
                     "  %r = add.w32 %d, %d\n  ret %r\n}\n"},
      {"no-terminator", "func @main() -> i32 {\n"
                        "  reg %x: i32\n"
                        "entry:\n  %x = const.i32 1\n}\n"},
      {"ret-without-value", "func @main() -> i32 {\nentry:\n  ret\n}\n"},
      {"sext-of-arrayref", "func @main() -> i64 {\n"
                           "  reg %n: i32\n  reg %a: arrayref\n"
                           "  reg %r: i64\n"
                           "entry:\n  %n = const.i32 4\n"
                           "  %a = newarray.i32 %n\n"
                           "  %r = sext32 %a\n  ret %r\n}\n"},
  };

  TempDir Dir("invalid");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.CacheDir = Dir.file("pcache");
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;

  for (const auto &[Name, Source] : Shapes) {
    SCOPED_TRACE(Name);
    ASSERT_TRUE(parseModule(Source).ok());
    ServeRequest Request;
    Request.Name = Name;
    Request.Source = Source;
    ServeReply Reply;
    // Twice: a rejected module is not cached, so it is rejected again.
    for (int Attempt = 0; Attempt < 2; ++Attempt) {
      ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
      EXPECT_FALSE(Reply.Ok);
      EXPECT_EQ(ServeErrorKind::Parse, Reply.ErrorKind);
      EXPECT_EQ(0u, Reply.Error.rfind("invalid module: ", 0)) << Reply.Error;
    }
  }

  CompileServiceStats Stats = Daemon.service().stats();
  EXPECT_EQ(2 * std::size(Shapes), Stats.Failed);
  EXPECT_EQ(0u, Stats.Compiled);
  EXPECT_EQ(0u, Stats.CacheHits);
  EXPECT_EQ(0u, Daemon.service().persistent()->stats().Insertions);
  EXPECT_EQ(0u, Daemon.service().cache()->stats().Entries);
  Daemon.stop();
  fs::path Objects = fs::path(Dir.file("pcache")) / "objects";
  EXPECT_TRUE(!fs::exists(Objects) || fs::is_empty(Objects));
}

TEST(ServeDaemon, DeadlineExpiryUnderSaturatedQueue) {
  TempDir Dir("deadline");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1; // One worker: the heavy jobs serialize.
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  // Saturate the single worker with heavy, hot compiles queued straight
  // on the daemon's compile service, so every doomed request below is
  // sent while heavy work is observably queued ahead of it. Going around
  // admission keeps the heavy jobs' own queue waits out of its p99
  // window: on a loaded host those waits can exceed 1ms, and a window
  // holding one would shed every doomed request as overload before any
  // could expire in queue.
  std::vector<std::future<CompileResult>> Heavy;
  for (int I = 0; I < 4; ++I) {
    CompileRequest Request;
    Request.Name = "heavy" + std::to_string(I);
    Request.Source = makeHeavySource(24, 8, /*Salt=*/I);
    Request.Config = PipelineConfig::forVariant(Variant::All);
    Request.Hotness = 1000.0; // Serve before the doomed request.
    Heavy.push_back(Daemon.service().enqueue(std::move(Request)));
  }

  // A 1ms-deadline request behind the heavy queue: either shed at
  // admission (budget infeasible) or expired in queue — both are typed
  // deadline-side errors; at least one request must hit `deadline` given
  // cold compiles take far longer than 1ms.
  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  unsigned DeadlineErrors = 0;
  for (int I = 0; I < 8; ++I) {
    ServeRequest Request;
    Request.Name = "doomed" + std::to_string(I);
    // Unique heavy source: never a cache hit, must actually compile.
    Request.Source = makeHeavySource(24, 8, /*Salt=*/100 + I);
    Request.Hotness = 0.0; // Behind every heavy job.
    Request.DeadlineMillis = 1;
    Request.WantIR = false;
    ServeReply Reply;
    ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
    if (!Reply.Ok) {
      EXPECT_TRUE(Reply.ErrorKind == ServeErrorKind::Deadline ||
                  Reply.ErrorKind == ServeErrorKind::Overload)
          << serveErrorKindName(Reply.ErrorKind) << ": " << Reply.Error;
      if (Reply.ErrorKind == ServeErrorKind::Deadline)
        ++DeadlineErrors;
    }
  }
  for (std::future<CompileResult> &H : Heavy)
    H.wait();
  EXPECT_GE(DeadlineErrors, 1u);
  EXPECT_GE(Daemon.service().stats().DeadlineMisses, 1u);
  Daemon.stop();
}

TEST(ServeDaemon, LoadShedsAtQueueDepthAndSharesRejectedLedger) {
  TempDir Dir("shed");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  Options.Admission.MaxQueueDepth = 1; // Shed on any concurrency.
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  // Four concurrent clients, each a burst of moderately heavy compiles:
  // with depth 1, concurrent submissions must shed.
  std::atomic<unsigned> Overloads{0}, Oks{0};
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T) {
    Threads.emplace_back([&, T] {
      ServeClient Client;
      std::string ThreadError;
      if (!Client.connectTo(Dir.sock(), ThreadError, 2000))
        return;
      for (int I = 0; I < 8; ++I) {
        ServeRequest Request;
        Request.Name = "burst";
        Request.Source = makeHeavySource(8, 4, /*Salt=*/T * 100 + I);
        Request.WantIR = false;
        ServeReply Reply;
        if (!Client.compile(Request, Reply, ThreadError))
          return;
        if (Reply.Ok)
          ++Oks;
        else if (Reply.ErrorKind == ServeErrorKind::Overload)
          ++Overloads;
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();

  EXPECT_GE(Overloads.load(), 1u);
  EXPECT_GE(Oks.load(), 1u);
  // Load-shed rejections land in the service's shared Rejected ledger
  // (satellite: one ledger for shutdown refusals and overload refusals).
  EXPECT_EQ(Overloads.load(), Daemon.service().stats().Rejected);
  Daemon.stop();
}

TEST(ServeDaemon, GracefulDrainAnswersEveryAcceptedRequest) {
  TempDir Dir("drain");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  // A heavy compile in flight while the daemon drains.
  std::atomic<bool> GotReply{false};
  std::atomic<bool> ReplyWasTyped{false};
  std::thread InFlight([&] {
    ServeClient Client;
    std::string ThreadError;
    if (!Client.connectTo(Dir.sock(), ThreadError, 2000))
      return;
    ServeRequest Request;
    Request.Name = "inflight";
    Request.Source = makeHeavySource(24, 8);
    Request.WantIR = false;
    ServeReply Reply;
    if (Client.compile(Request, Reply, ThreadError)) {
      GotReply = true;
      // Either it was admitted before the stop flag (Ok) or refused with
      // the typed shutdown error — never a dropped connection.
      ReplyWasTyped =
          Reply.Ok || Reply.ErrorKind == ServeErrorKind::Shutdown;
    }
  });
  // Give the in-flight request a moment to be admitted, then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Daemon.requestStop();
  Daemon.stop();
  InFlight.join();

  EXPECT_TRUE(GotReply.load());
  EXPECT_TRUE(ReplyWasTyped.load());
  EXPECT_FALSE(fs::exists(Dir.sock()));

  // A draining daemon rejects fresh connections (socket unlinked).
  ServeClient Late;
  EXPECT_FALSE(Late.connectTo(Dir.sock(), Error));
}

TEST(ServeDaemon, ShutdownFrameDrainsViaRun) {
  TempDir Dir("shutdownframe");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  std::thread Runner([&] { Daemon.run(); });

  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  ASSERT_TRUE(Client.requestShutdown(Error)) << Error;
  Runner.join(); // run() returns only after the drain completes.
  EXPECT_TRUE(Daemon.stopRequested());
  EXPECT_FALSE(fs::exists(Dir.sock()));
}

namespace {
/// This process's virtual size in KiB (VmSize in /proc/self/status); 0
/// when it cannot be read.
int64_t vmSizeKiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtoll(Line.c_str() + 7, nullptr, 10);
  return 0;
}
} // namespace

TEST(ServeDaemon, ClosedConnectionsReleaseTheirHandlerThreads) {
  // Every connection gets a handler thread; one left unjoined after its
  // client hangs up keeps its stack mapped until stop(). A long-running
  // daemon serving short-lived clients must not grow by a stack per
  // connection.
  TempDir Dir("reap");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  auto PingAndClose = [&] {
    ServeClient Client;
    ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
    ASSERT_TRUE(Client.ping(Error)) << Error;
  };
  // Handlers still finishing when the next client connects overlap it.
  // Eight concurrent clients first map the thread stacks and malloc
  // arenas such overlaps reuse; the budget is for what the next 64 add.
  {
    std::vector<ServeClient> Clients(8);
    for (ServeClient &Client : Clients) {
      ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
      ASSERT_TRUE(Client.ping(Error)) << Error;
    }
  }
  for (int I = 0; I < 4; ++I)
    PingAndClose();
  int64_t Before = vmSizeKiB();
  if (Before == 0)
    GTEST_SKIP() << "no VmSize in /proc/self/status";
  for (int I = 0; I < 64; ++I)
    PingAndClose();
  int64_t GrowthKiB = vmSizeKiB() - Before;
  EXPECT_LT(GrowthKiB, 64 * 1024) << "64 closed connections grew VmSize by "
                                  << GrowthKiB << " KiB";
  EXPECT_EQ(Daemon.connectionsAccepted(), 76u);
  Daemon.stop();
}

TEST(ServeDaemon, RestartServesFromWarmPersistentCache) {
  TempDir Dir("restart");
  std::string CacheDir = (Dir.Path / "cache").string();
  std::string Source = smallSource(/*Bias=*/7);
  std::string FirstIR;

  {
    ServeDaemonOptions Options;
    Options.SocketPath = Dir.sock();
    Options.Jobs = 2;
    Options.CacheDir = CacheDir;
    ServeDaemon Daemon(Options);
    std::string Error;
    ASSERT_TRUE(Daemon.start(Error)) << Error;
    ServeClient Client;
    ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
    ServeRequest Request;
    Request.Name = "warm";
    Request.Source = Source;
    Request.CollectRemarks = true;
    ServeReply Reply;
    ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
    ASSERT_TRUE(Reply.Ok) << Reply.Error;
    EXPECT_EQ(ServeTier::Compiled, Reply.Tier);
    FirstIR = Reply.IRText;
    Daemon.stop(); // The entry was published when the compile wrote it.
  }

  // Second daemon, same cache dir: the artifact comes off disk without a
  // compile, byte-identical, with the remark stream replayed.
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 2;
  Options.CacheDir = CacheDir;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  ServeRequest Request;
  Request.Name = "warm";
  Request.Source = Source;
  Request.CollectRemarks = true;
  ServeReply Reply;
  ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
  ASSERT_TRUE(Reply.Ok) << Reply.Error;
  EXPECT_EQ(ServeTier::Persistent, Reply.Tier);
  EXPECT_EQ(FirstIR, Reply.IRText);
  EXPECT_FALSE(Reply.RemarksJsonl.empty());
  EXPECT_EQ(0u, Daemon.service().stats().Compiled);
  EXPECT_EQ(1u, Daemon.service().stats().PersistentHits);
  Daemon.stop();
}

TEST(ServeDaemon, SourceHitReplyMatchesStructuralHitReply) {
  TempDir Dir("srchit");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 2;
  recordArtifactsIn(Options, Dir);
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;

  auto Send = [&](const std::string &Source) {
    ServeRequest Request;
    Request.Name = "hit.sxir";
    Request.Source = Source;
    Request.CollectRemarks = true;
    ServeReply Reply;
    EXPECT_TRUE(Client.compile(Request, Reply, Error)) << Error;
    EXPECT_TRUE(Reply.Ok) << Reply.Error;
    return Reply;
  };
  // Register names are cosmetic: same structural key, different source
  // bytes.
  std::string Source = smallSource(/*Bias=*/61);
  std::string Renamed = Source;
  for (size_t Pos = Renamed.find("%v"); Pos != std::string::npos;
       Pos = Renamed.find("%v", Pos + 1))
    Renamed.replace(Pos, 2, "%w");
  ASSERT_NE(Source, Renamed);

  ServeReply Compiled = Send(Source);
  ServeReply Structural = Send(Renamed); // Source miss, structural hit.
  ServeReply BySource = Send(Source);    // Source hit at enqueue.
  EXPECT_EQ(ServeTier::Compiled, Compiled.Tier);
  EXPECT_EQ(ServeTier::Memory, Structural.Tier);
  EXPECT_EQ(ServeTier::Memory, BySource.Tier);
  EXPECT_EQ(0u, BySource.QueueWaitNanos);
  EXPECT_EQ(1u, Daemon.service().stats().Compiled);
  EXPECT_EQ(2u, Daemon.service().stats().CacheHits);

  // Byte-identical on the wire once the per-request fields (ids and
  // measured times) are set aside.
  for (ServeReply *Reply : {&Structural, &BySource}) {
    Reply->TraceId = Reply->RequestId = 0;
    Reply->QueueWaitNanos = Reply->WallNanos = 0;
  }
  EXPECT_EQ(encodeServeReply(Structural), encodeServeReply(BySource));
  EXPECT_FALSE(BySource.RemarksJsonl.empty());

  // The source hit keeps its lifecycle: admit -> cache_tier(memory) ->
  // reply, all under its own request id.
  std::vector<const ObsEvent *> Lifecycle;
  std::vector<ObsEvent> Events = Daemon.eventLog().snapshot();
  for (const ObsEvent &Event : Events)
    if (Event.Ctx.RequestId == 3)
      Lifecycle.push_back(&Event);
  ASSERT_EQ(3u, Lifecycle.size());
  EXPECT_EQ(ObsEventKind::Admit, Lifecycle[0]->Kind);
  EXPECT_EQ(ObsEventKind::CacheTier, Lifecycle[1]->Kind);
  EXPECT_EQ(ObsEventKind::Reply, Lifecycle[2]->Kind);
  auto FieldOf = [](const ObsEvent &Event, const std::string &Key) {
    for (const auto &Field : Event.Fields)
      if (Field.first == Key)
        return Field.second;
    return std::string();
  };
  EXPECT_EQ("memory", FieldOf(*Lifecycle[1], "tier"));
  EXPECT_EQ("memory", FieldOf(*Lifecycle[2], "tier"));

  // Its spans: the probe and the serve span, no queue wait.
  std::set<std::string> Spans;
  JsonValue Doc;
  ASSERT_TRUE(parseJson(Daemon.traceCollector().toJson(), Doc, Error))
      << Error;
  for (const JsonValue &Event : Doc.find("traceEvents")->array()) {
    const JsonValue *Args = Event.find("args");
    if (Event.stringField("ph") == "X" && Args &&
        Args->stringField("request_id") == "3")
      Spans.insert(Event.stringField("name"));
  }
  EXPECT_EQ((std::set<std::string>{"cache-probe", "serve-request"}), Spans);
  Daemon.stop();
}

//===----------------------------------------------------------------------===//
// Request-scoped tracing and the flight recorder
//===----------------------------------------------------------------------===//

TEST(ServeProtocol, TraceIdsRoundTripAndLegacyPayloadsDecodeToZero) {
  ServeRequest Request;
  Request.Name = "mod.sxir";
  Request.Source = "x";
  Request.TraceId = 0x00c0ffee00000001ull;
  Request.ClientRequestId = 9;
  ServeRequest LoadedRequest;
  std::string Error;
  ASSERT_TRUE(decodeServeRequest(encodeServeRequest(Request), LoadedRequest,
                                 Error))
      << Error;
  EXPECT_EQ(Request.TraceId, LoadedRequest.TraceId);
  EXPECT_EQ(9u, LoadedRequest.ClientRequestId);

  ServeReply Reply;
  Reply.Ok = true;
  Reply.TraceId = 0xabcdef0102030405ull;
  Reply.RequestId = 17;
  ServeReply LoadedReply;
  ASSERT_TRUE(decodeServeReply(encodeServeReply(Reply), LoadedReply, Error))
      << Error;
  EXPECT_EQ(Reply.TraceId, LoadedReply.TraceId);
  EXPECT_EQ(17u, LoadedReply.RequestId);

  // Old-client compat: payloads that predate tracing carry no id fields
  // and must decode to zero (= absent), not fail.
  ASSERT_TRUE(decodeServeRequest(
      "{\"schema\":\"sxe.serve.v1\",\"source\":\"x\"}", LoadedRequest,
      Error))
      << Error;
  EXPECT_EQ(0u, LoadedRequest.TraceId);
  EXPECT_EQ(0u, LoadedRequest.ClientRequestId);

  // A malformed trace id degrades to absent rather than poisoning the
  // request.
  ASSERT_TRUE(decodeServeRequest("{\"schema\":\"sxe.serve.v1\",\"source\":"
                                 "\"x\",\"trace_id\":\"not-hex\"}",
                                 LoadedRequest, Error))
      << Error;
  EXPECT_EQ(0u, LoadedRequest.TraceId);

  // Hex ids are strict: a sign, a 0x prefix, a leading space or
  // trailing junk is malformed, hence absent, on both sides of the wire.
  for (const char *Bad : {"-1", "0x1f", "+7", " 12zz", "12zz",
                          "00000000000000001"}) {
    std::string Id = std::string("\"") + Bad + "\"";
    ASSERT_TRUE(decodeServeRequest("{\"schema\":\"sxe.serve.v1\",\"source\":"
                                   "\"x\",\"trace_id\":" + Id + "}",
                                   LoadedRequest, Error))
        << Error;
    EXPECT_EQ(0u, LoadedRequest.TraceId) << Bad;
    ASSERT_TRUE(decodeServeReply("{\"schema\":\"sxe.serve.v1\",\"ok\":true,"
                                 "\"ir_hash\":" + Id + ",\"trace_id\":" +
                                     Id + "}",
                                 LoadedReply, Error))
        << Error;
    EXPECT_EQ(0u, LoadedReply.InputIRHash) << Bad;
    EXPECT_EQ(0u, LoadedReply.TraceId) << Bad;
  }

  // Zero ids are omitted on the wire and come back as zero.
  ServeReply PlainReply;
  PlainReply.Ok = true;
  std::string Encoded = encodeServeReply(PlainReply);
  EXPECT_EQ(std::string::npos, Encoded.find("trace_id"));
  ASSERT_TRUE(decodeServeReply(Encoded, LoadedReply, Error)) << Error;
  EXPECT_EQ(0u, LoadedReply.TraceId);
  EXPECT_EQ(0u, LoadedReply.RequestId);
}

TEST(ServeDaemon, EchoesTraceIdentityAndLogsLifecycleEvents) {
  TempDir Dir("trace");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 2;
  recordArtifactsIn(Options, Dir);
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  ServeClient Client;
  TraceCollector ClientTrace;
  Client.setTrace(&ClientTrace);
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;

  // A client-minted trace id comes back verbatim; the daemon assigns the
  // dense request id.
  ServeRequest Request;
  Request.Name = "traced.sxir";
  Request.Source = smallSource(/*Bias=*/21);
  Request.TraceId = 0x5eed5eed5eed5eedull;
  ServeReply Reply;
  ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
  ASSERT_TRUE(Reply.Ok) << Reply.Error;
  EXPECT_EQ(Request.TraceId, Reply.TraceId);
  EXPECT_EQ(1u, Reply.RequestId);

  // The client library mints when the caller did not.
  ServeRequest Minted;
  Minted.Name = "minted.sxir";
  Minted.Source = smallSource(/*Bias=*/22);
  ServeReply Second;
  ASSERT_TRUE(Client.compile(Minted, Second, Error)) << Error;
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_NE(0u, Second.TraceId);
  EXPECT_EQ(2u, Second.RequestId);

  // The structured event log recorded the lifecycle under the same ids.
  unsigned Admits = 0, Tiers = 0, Replies = 0;
  for (const ObsEvent &Event : Daemon.eventLog().snapshot()) {
    if (Event.Ctx.TraceId != Request.TraceId)
      continue;
    if (Event.Kind == ObsEventKind::Admit)
      ++Admits;
    if (Event.Kind == ObsEventKind::CacheTier)
      ++Tiers;
    if (Event.Kind == ObsEventKind::Reply)
      ++Replies;
  }
  EXPECT_EQ(1u, Admits);
  EXPECT_EQ(1u, Tiers);
  EXPECT_EQ(1u, Replies);

  // Both trace timelines carry the id as a span argument — the join key
  // tools/sxe-obs stitches by.
  std::string Hex = traceIdHex(Request.TraceId);
  EXPECT_NE(std::string::npos, Daemon.traceCollector().toJson().find(Hex));
  EXPECT_NE(std::string::npos, ClientTrace.toJson().find(Hex));
  Daemon.stop();
}

TEST(ServeDaemon, MintsTraceIdsForLegacyClients) {
  TempDir Dir("legacy");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  // Speak the wire protocol directly, as a pre-tracing client would: no
  // trace_id field in the request at all.
  int Fd = connectRaw(Dir.sock());
  ASSERT_GE(Fd, 0);

  ServeRequest Request;
  Request.Name = "legacy.sxir";
  Request.Source = smallSource(/*Bias=*/31);
  ASSERT_EQ(0u, Request.TraceId);
  ASSERT_TRUE(writeFrame(Fd, FrameType::Compile,
                         encodeServeRequest(Request), Error))
      << Error;
  FrameType Type;
  std::string Payload;
  ASSERT_TRUE(readFrame(Fd, Type, Payload, Error)) << Error;
  ASSERT_EQ(FrameType::CompileReply, Type);
  ServeReply Reply;
  ASSERT_TRUE(decodeServeReply(Payload, Reply, Error)) << Error;
  ASSERT_TRUE(Reply.Ok) << Reply.Error;
  // The daemon minted an id so even this request is joinable.
  EXPECT_NE(0u, Reply.TraceId);
  EXPECT_EQ(1u, Reply.RequestId);
  ::close(Fd);
  Daemon.stop();
}

TEST(ServeDaemon, OutOfRangeNumberGetsTypedProtocolReply) {
  TempDir Dir("range");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;
  int Fd = connectRaw(Dir.sock());
  ASSERT_GE(Fd, 0);

  // A hostile frame: hotness overflows a double. The handler must answer
  // with a typed protocol error, not terminate the daemon.
  std::string Source = smallSource(/*Bias=*/41);
  std::string Hostile = "{\"schema\": \"sxe.serve.v1\", \"source\": " +
                        JsonWriter::quote(Source) + ", \"hotness\": 1e999}";
  ASSERT_TRUE(writeFrame(Fd, FrameType::Compile, Hostile, Error)) << Error;
  FrameType Type;
  std::string Payload;
  ASSERT_TRUE(readFrame(Fd, Type, Payload, Error)) << Error;
  ASSERT_EQ(FrameType::CompileReply, Type);
  ServeReply Reply;
  ASSERT_TRUE(decodeServeReply(Payload, Reply, Error)) << Error;
  EXPECT_FALSE(Reply.Ok);
  EXPECT_EQ(ServeErrorKind::Protocol, Reply.ErrorKind);
  EXPECT_NE(std::string::npos, Reply.Error.find("number out of range"))
      << Reply.Error;

  // The same connection still serves the next request.
  ServeRequest Request;
  Request.Name = "after.sxir";
  Request.Source = Source;
  ASSERT_TRUE(writeFrame(Fd, FrameType::Compile, encodeServeRequest(Request),
                         Error))
      << Error;
  ASSERT_TRUE(readFrame(Fd, Type, Payload, Error)) << Error;
  ASSERT_TRUE(decodeServeReply(Payload, Reply, Error)) << Error;
  EXPECT_TRUE(Reply.Ok) << Reply.Error;
  ::close(Fd);
  Daemon.stop();
}

TEST(ServeDaemon, DumpFrameReturnsParseableFlightRecording) {
  TempDir Dir("dump");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  Options.Jobs = 1;
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  ServeRequest Request;
  Request.Name = "dumped.sxir";
  Request.Source = smallSource(/*Bias=*/41);
  ServeReply Reply;
  ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
  ASSERT_TRUE(Reply.Ok) << Reply.Error;

  std::string Dump;
  ASSERT_TRUE(Client.fetchFlightDump(Dump, Error)) << Error;
  std::vector<std::string> Lines;
  std::istringstream In(Dump);
  for (std::string Line; std::getline(In, Line);) {
    if (!Line.empty())
      Lines.push_back(Line);
  }
  ASSERT_GE(Lines.size(), 2u);
  JsonValue Doc;
  for (const std::string &Line : Lines) {
    ASSERT_TRUE(parseJson(Line, Doc, Error)) << Line << ": " << Error;
  }
  ASSERT_TRUE(parseJson(Lines[0], Doc, Error)) << Error;
  EXPECT_EQ(kFlightSchema, Doc.stringField("schema"));
  EXPECT_NE(std::string::npos, Dump.find("\"admit\""));
  EXPECT_NE(std::string::npos, Dump.find(traceIdHex(Reply.TraceId)));
  Daemon.stop();
}

TEST(ServeDaemon, NoTraceStillRecordsLifecycleInFlightRecorder) {
  // Default options and no artifact paths: the daemon keeps no spans and
  // no event records, only the fixed-size flight ring.
  TempDir Dir("notrace");
  ServeDaemonOptions Options;
  Options.SocketPath = Dir.sock();
  ServeDaemon Daemon(Options);
  std::string Error;
  ASSERT_TRUE(Daemon.start(Error)) << Error;

  ServeClient Client;
  ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
  // Two cold compiles, then a source hit.
  std::vector<ServeReply> Replies;
  for (int Bias : {43, 44, 43}) {
    ServeRequest Request;
    Request.Name = "untraced" + std::to_string(Bias) + ".sxir";
    Request.Source = smallSource(Bias);
    ServeReply Reply;
    ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
    ASSERT_TRUE(Reply.Ok) << Reply.Error;
    Replies.push_back(Reply);
  }
  EXPECT_EQ(ServeTier::Memory, Replies.back().Tier);
  EXPECT_EQ(0u, Daemon.traceCollector().size());
  EXPECT_EQ(0u, Daemon.eventLog().size());

  // The ring holds each request's whole lifecycle.
  std::string Dump;
  ASSERT_TRUE(Client.fetchFlightDump(Dump, Error)) << Error;
  std::map<uint64_t, std::multiset<std::string>> EventsByRequest;
  std::istringstream In(Dump);
  for (std::string Line; std::getline(In, Line);) {
    JsonValue Doc;
    ASSERT_TRUE(parseJson(Line, Doc, Error)) << Line << ": " << Error;
    EventsByRequest[Doc.uint64Field("request_id")].insert(
        Doc.stringField("event"));
  }
  for (const ServeReply &Reply : Replies) {
    const std::multiset<std::string> &Events =
        EventsByRequest[Reply.RequestId];
    EXPECT_EQ((std::multiset<std::string>{"admit", "cache_tier", "reply"}),
              Events)
        << "request " << Reply.RequestId;
  }
  EXPECT_EQ(0u, Daemon.traceCollector().size());
  EXPECT_EQ(0u, Daemon.eventLog().size());
  Daemon.stop();
}

namespace {

/// Span names in \p TraceJson whose args carry \p TraceIdHex — the same
/// join tools/sxe-obs performs.
std::set<std::string> spanNamesForTrace(const std::string &TraceJson,
                                        const std::string &TraceIdHex) {
  JsonValue Doc;
  std::string Error;
  EXPECT_TRUE(parseJson(TraceJson, Doc, Error)) << Error;
  std::set<std::string> Names;
  const JsonValue *Events = Doc.find("traceEvents");
  if (!Events)
    return Names;
  for (const JsonValue &Event : Events->array()) {
    if (Event.stringField("ph") != "X")
      continue;
    const JsonValue *Args = Event.find("args");
    if (Args && Args->stringField("trace_id") == TraceIdHex)
      Names.insert(Event.stringField("name"));
  }
  return Names;
}

} // namespace

TEST(ServeDaemon, SpanSetPerRequestIsDeterministicAcrossWorkerCounts) {
  // The same three cold modules served by a 1-worker and a 4-worker
  // daemon must produce the same stitched span-name set per request —
  // scheduling may reorder spans across tracks, never add or drop them.
  const int Biases[] = {51, 52, 53};
  std::map<unsigned, std::map<int, std::set<std::string>>> SpansByJobs;
  for (unsigned Jobs : {1u, 4u}) {
    TempDir Dir(Jobs == 1 ? "stitch1" : "stitch4");
    ServeDaemonOptions Options;
    Options.SocketPath = Dir.sock();
    Options.Jobs = Jobs;
    recordArtifactsIn(Options, Dir);
    ServeDaemon Daemon(Options);
    std::string Error;
    ASSERT_TRUE(Daemon.start(Error)) << Error;
    ServeClient Client;
    ASSERT_TRUE(Client.connectTo(Dir.sock(), Error, 2000)) << Error;
    for (int Bias : Biases) {
      ServeRequest Request;
      Request.Name = "stitch" + std::to_string(Bias);
      Request.Source = smallSource(Bias);
      ServeReply Reply;
      ASSERT_TRUE(Client.compile(Request, Reply, Error)) << Error;
      ASSERT_TRUE(Reply.Ok) << Reply.Error;
      SpansByJobs[Jobs][Bias] = spanNamesForTrace(
          Daemon.traceCollector().toJson(), traceIdHex(Reply.TraceId));
    }
    Daemon.stop();
  }
  for (int Bias : Biases) {
    const std::set<std::string> &Serial = SpansByJobs[1][Bias];
    EXPECT_EQ(Serial, SpansByJobs[4][Bias]) << "bias " << Bias;
    // Every cold request tells the whole story: enqueue, probe, compile,
    // serve.
    for (const char *Name :
         {"queue-wait", "cache-probe", "compile", "serve-request"})
      EXPECT_TRUE(Serial.count(Name)) << Name << " missing, bias " << Bias;
  }
}

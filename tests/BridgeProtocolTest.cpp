//===- tests/BridgeProtocolTest.cpp - Bridge protocol pinning tests -------===//
//
// Pins every observable decision of the compiler <-> model protocol:
//
//  * the reply bytes both servers (serveModel over an InProcessPipe, the
//    ModelServer daemon over a Unix socket) write for each entry class
//    (covered level, uncovered level, wrong feature count) in each frame
//    shape (Features, FeatureBatch of one, mixed FeatureBatch), plus Hello
//    accept/reject, a malformed frame and the daemon's shed;
//  * the per-server Served/Degraded counts and the bridge.* / serve.*
//    registry deltas of each of those exchanges;
//  * the bytes ResilientModelClient writes for Hello, requestModifier and
//    requestModifierBatch;
//  * the fault-point hits one frame read costs on each transport, with and
//    without a deadline.
//
// The golden bytes were captured from the servers and client as they were
// before the bridge's single-request and batch paths were merged. This
// file links its own executable (bridge_protocol_tests) so its
// registrations do not shift jitml_tests' parameterized test names.
//
//===----------------------------------------------------------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "serve/Server.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <thread>
#include <unistd.h>

using namespace jitml;

namespace {

constexpr int ReadMs = 5000; ///< generous: a golden, not a latency check

std::string hex(const std::vector<uint8_t> &Bytes) {
  std::string S;
  char Buf[3];
  for (uint8_t B : Bytes) {
    std::snprintf(Buf, sizeof(Buf), "%02x", B);
    S += Buf;
  }
  return S;
}

/// "<length>:<fnv1a-64>" — a compact golden for frames carrying 71 f64s.
std::string digest(const std::vector<uint8_t> &Bytes) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (uint8_t B : Bytes)
    H = (H ^ B) * 0x100000001b3ULL;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%zu:%016llx", Bytes.size(),
                (unsigned long long)H);
  return Buf;
}

/// Reads one whole frame (length prefix included) as raw bytes.
std::vector<uint8_t> readRawFrame(Transport &T) {
  std::vector<uint8_t> Frame(4);
  if (T.readBytesFor(Frame.data(), 4, ReadMs) != IoStatus::Ok)
    return {};
  uint32_t Len = Frame[0] | (Frame[1] << 8) | (Frame[2] << 16) |
                 ((uint32_t)Frame[3] << 24);
  if (Len == 0 || Len > (1u << 20))
    return {};
  Frame.resize(4 + Len);
  if (T.readBytesFor(Frame.data() + 4, Len, ReadMs) != IoStatus::Ok)
    return {};
  return Frame;
}

void writeFrame(Transport &T, const std::vector<uint8_t> &Frame) {
  ASSERT_TRUE(T.writeBytes(Frame.data(), Frame.size()));
}

std::vector<uint8_t> frameOf(const Message &M) {
  std::vector<uint8_t> F;
  encodeMessageFrame(M, F);
  return F;
}

/// Deterministic covered feature vector; the daemon's 2-class model picks
/// label 1 (feature0 > feature1).
std::vector<double> goodValues() {
  std::vector<double> V(NumFeatures, 0.0);
  for (unsigned I = 0; I < NumFeatures; ++I)
    V[I] = (double)((I * 7 + 3) % 11);
  V[0] = 9;
  V[1] = 2;
  return V;
}

std::vector<double> shortValues() { return {1.0, 2.0, 3.0}; }

BatchFeatureEntry entry(OptLevel L, std::vector<double> V) {
  BatchFeatureEntry E;
  E.Level = L;
  E.FeatureValues = std::move(V);
  return E;
}

std::vector<uint8_t> featuresFrame(OptLevel L, std::vector<double> V) {
  Message M;
  M.Type = MsgType::Features;
  M.Level = L;
  M.FeatureValues = std::move(V);
  return frameOf(M);
}

std::vector<uint8_t> batchFrame(std::vector<BatchFeatureEntry> Es) {
  Message M;
  M.Type = MsgType::FeatureBatch;
  M.BatchFeatures = std::move(Es);
  return frameOf(M);
}

std::vector<uint8_t> helloFrame(uint8_t Version) {
  Message M;
  M.Type = MsgType::Hello;
  M.Version = Version;
  return frameOf(M);
}

/// length 4 | type 42 | 3 payload bytes: frame-aligned, unknown type.
std::vector<uint8_t> malformedFrame() { return {4, 0, 0, 0, 42, 9, 9, 9}; }

/// The request frames every server case sends, by case name. Warm is
/// covered by both servers' models, Scorching by neither.
struct RequestCase {
  const char *Name;
  std::vector<uint8_t> Frame;
};

std::vector<RequestCase> requestCases() {
  const OptLevel Cov = OptLevel::Warm, Unc = OptLevel::Scorching;
  return {
      {"features_covered", featuresFrame(Cov, goodValues())},
      {"features_uncovered", featuresFrame(Unc, goodValues())},
      {"features_wrong_count", featuresFrame(Cov, shortValues())},
      {"batch1_covered", batchFrame({entry(Cov, goodValues())})},
      {"batch1_uncovered", batchFrame({entry(Unc, goodValues())})},
      {"batch1_wrong_count", batchFrame({entry(Cov, shortValues())})},
      {"batch_mixed",
       batchFrame({entry(Cov, goodValues()), entry(Unc, goodValues()),
                   entry(Cov, shortValues())})},
      {"hello_accept", helloFrame(ProtocolVersion)},
      {"hello_reject", helloFrame(ProtocolVersion + 1)},
      {"malformed", malformedFrame()},
  };
}

/// The registry rows an exchange is pinned on. Batcher coalescing rows
/// (batches, fill, coalesced) depend on timing and are left out.
const char *const PinnedMetrics[] = {
    "bridge.served",       "bridge.degraded",    "bridge.hello_rejects",
    "serve.requests",      "serve.served",       "serve.degraded",
    "serve.shed",          "serve.hello_rejects", "serve.malformed",
    "serve.cache_hits",    "serve.cache_misses", "serve.predictions",
    "serve.request.count",
};

std::map<std::string, uint64_t> pinnedSnapshot() {
  std::map<std::string, uint64_t> Out;
  for (const MetricSample &S : MetricRegistry::global().snapshot())
    for (const char *Name : PinnedMetrics)
      if (S.Name == Name)
        Out[Name] = S.Value;
  return Out;
}

/// Nonzero deltas as "name=+n,..." in name order.
std::string deltas(const std::map<std::string, uint64_t> &Before,
                   const std::map<std::string, uint64_t> &After) {
  std::string S;
  for (const auto &[Name, Value] : After) {
    auto It = Before.find(Name);
    uint64_t Old = It == Before.end() ? 0 : It->second;
    if (Value == Old)
      continue;
    if (!S.empty())
      S += ",";
    S += Name + "=+" + std::to_string(Value - Old);
  }
  return S;
}

/// What one server exchange must produce.
struct Golden {
  const char *Name;
  const char *ReplyHex;
  uint64_t Served, Degraded;
  const char *Deltas;
};

const Golden *findGolden(const std::vector<Golden> &Gs, const char *Name) {
  for (const Golden &G : Gs)
    if (std::string(G.Name) == Name)
      return &G;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// serveModel over an InProcessPipe
//===----------------------------------------------------------------------===//

/// Covers Cold..Hot; bits = 1000 * level + sum of the raw features.
class StubBackend : public ModelBackend {
public:
  std::optional<uint64_t>
  predictModifier(OptLevel Level, const std::vector<double> &Raw) override {
    if (Level == OptLevel::Scorching)
      return std::nullopt;
    uint64_t Bits = 1000 * (uint64_t)Level;
    for (double V : Raw)
      Bits += (uint64_t)V;
    return Bits;
  }
};

const std::vector<Golden> &serveModelGoldens() {
  static const std::vector<Golden> Gs = {
      {"features_covered", "09000000034e05000000000000", 1, 0,
       "bridge.served=+1"},
      {"features_uncovered", "13000000046e6f206d6f64656c20666f72206c6576656c",
       0, 1, "bridge.degraded=+1"},
      // Fails at the parent: serveModel answered without counting it.
      {"features_wrong_count",
       "17000000046665617475726520636f756e74206d69736d61746368", 0, 1,
       "bridge.degraded=+1"},
      {"batch1_covered", "0c000000070100014e05000000000000", 1, 0,
       "bridge.served=+1"},
      {"batch1_uncovered", "0c000000070100000000000000000000", 0, 1,
       "bridge.degraded=+1"},
      {"batch1_wrong_count", "0c000000070100000000000000000000", 0, 1,
       "bridge.degraded=+1"},
      {"batch_mixed",
       "1e00000007030001" "4e05000000000000" "000000000000000000"
       "000000000000000000",
       1, 2, "bridge.degraded=+2,bridge.served=+1"},
      {"hello_accept", "020000000101", 0, 0, ""},
      {"hello_reject",
       "1d00000004756e737570706f727465642070726f746f636f6c2076657273696f6e",
       0, 0, "bridge.hello_rejects=+1"},
      {"malformed", "10000000046d616c666f726d6564206672616d65", 0, 0, ""},
  };
  return Gs;
}

TEST(BridgeProtocol, ServeModelRepliesMatchGoldens) {
  StubBackend Backend;
  for (const RequestCase &C : requestCases()) {
    SCOPED_TRACE(C.Name);
    const Golden *G = findGolden(serveModelGoldens(), C.Name);
    ASSERT_NE(G, nullptr);
    auto Before = pinnedSnapshot();
    auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
    ServeStats Stats;
    std::thread Server([&, S = ServerEnd.get()] {
      Stats = serveModel(*S, Backend);
    });
    writeFrame(*ClientEnd, C.Frame);
    std::vector<uint8_t> Reply = readRawFrame(*ClientEnd);
    Message Bye;
    Bye.Type = MsgType::Bye;
    sendMessage(*ClientEnd, Bye);
    Server.join();
    EXPECT_EQ(hex(Reply), G->ReplyHex);
    EXPECT_EQ(Stats.Served, G->Served);
    EXPECT_EQ(Stats.Degraded, G->Degraded);
    EXPECT_EQ(deltas(Before, pinnedSnapshot()), G->Deltas);
  }
}

//===----------------------------------------------------------------------===//
// ModelServer (the daemon) over a Unix socket
//===----------------------------------------------------------------------===//

std::string identityScalingText() {
  std::string S;
  for (unsigned I = 0; I < NumFeatures; ++I)
    S += std::to_string(I) + " 0 1\n";
  return S;
}

/// Cold/Warm/Hot with identity scaling and a 2-class linear model (label 1
/// when feature0 > feature1); level L's labels map to 100 + 10L + label.
ModelSet makeModelSet() {
  ModelSet Set;
  for (unsigned L = 0; L < 3; ++L) {
    LevelModel &LM = Set.Levels[L];
    EXPECT_TRUE(Scaling::fromText(identityScalingText(), LM.Scale));
    LM.Labels.labelFor(100 + 10 * L + 1);
    LM.Labels.labelFor(100 + 10 * L + 2);
    LM.Model = LinearModel(2, NumFeatures);
    LM.Model.weight(0, 0) = 1.0;
    LM.Model.weight(1, 1) = 1.0;
    LM.Valid = true;
  }
  return Set;
}

const std::vector<Golden> &daemonGoldens() {
  static const std::vector<Golden> Gs = {
      {"features_covered", "09000000036f00000000000000", 1, 0,
       "serve.cache_misses=+1,serve.predictions=+1,serve.request.count=+1,"
       "serve.requests=+1,serve.served=+1"},
      {"features_uncovered", "13000000046e6f206d6f64656c20666f72206c6576656c",
       0, 1,
       "serve.cache_misses=+1,serve.degraded=+1,serve.predictions=+1,"
       "serve.request.count=+1,serve.requests=+1"},
      // Fails at the parent, which recorded no serve.request latency for
      // this one frame shape (a FeatureBatch of one always recorded it).
      {"features_wrong_count",
       "17000000046665617475726520636f756e74206d69736d61746368", 0, 1,
       "serve.degraded=+1,serve.request.count=+1,serve.requests=+1"},
      {"batch1_covered", "0c000000070100016f00000000000000", 1, 0,
       "serve.cache_misses=+1,serve.predictions=+1,serve.request.count=+1,"
       "serve.requests=+1,serve.served=+1"},
      {"batch1_uncovered", "0c000000070100000000000000000000", 0, 1,
       "serve.cache_misses=+1,serve.degraded=+1,serve.predictions=+1,"
       "serve.request.count=+1,serve.requests=+1"},
      {"batch1_wrong_count", "0c000000070100000000000000000000", 0, 1,
       "serve.degraded=+1,serve.request.count=+1,serve.requests=+1"},
      {"batch_mixed",
       "1e00000007030001" "6f00000000000000" "000000000000000000"
       "000000000000000000",
       1, 2,
       "serve.cache_misses=+2,serve.degraded=+2,serve.predictions=+2,"
       "serve.request.count=+1,serve.requests=+1,serve.served=+1"},
      {"hello_accept", "020000000101", 0, 0, ""},
      {"hello_reject",
       "1d00000004756e737570706f727465642070726f746f636f6c2076657273696f6e",
       0, 0, "serve.hello_rejects=+1"},
      {"malformed", "10000000046d616c666f726d6564206672616d65", 0, 0,
       "serve.malformed=+1"},
  };
  return Gs;
}

std::string daemonSocketPath(const char *Tag) {
  return "/tmp/jitml-bridge-protocol-" + std::to_string(::getpid()) + "-" +
         Tag + ".sock";
}

/// One daemon session: a fresh server, one connection, one request frame.
/// The server is stopped before the registry is read, so every metric the
/// reply path records has landed.
void daemonExchange(const std::vector<uint8_t> &Request, const Golden &G,
                    const char *FaultSpec) {
  ModelRegistry Registry;
  Registry.install(makeModelSet());
  ServeConfig Cfg;
  Cfg.SocketPath = daemonSocketPath(G.Name);
  auto Before = pinnedSnapshot();
  ModelServer Server(Registry, Cfg);
  ASSERT_TRUE(Server.start());
  if (FaultSpec) {
    ASSERT_TRUE(FaultRegistry::global().arm(FaultSpec, 1));
  }
  auto T = SocketTransport::connect(Cfg.SocketPath);
  ASSERT_NE(T, nullptr);
  writeFrame(*T, Request);
  std::vector<uint8_t> Reply = readRawFrame(*T);
  FaultRegistry::global().disarm();
  Message Bye;
  Bye.Type = MsgType::Bye;
  sendMessage(*T, Bye);
  T.reset();
  Server.stop();
  EXPECT_EQ(hex(Reply), G.ReplyHex);
  EXPECT_EQ(Server.stats().Served, G.Served);
  EXPECT_EQ(Server.stats().Degraded, G.Degraded);
  EXPECT_EQ(deltas(Before, pinnedSnapshot()), G.Deltas);
}

TEST(BridgeProtocol, DaemonRepliesMatchGoldens) {
  for (const RequestCase &C : requestCases()) {
    SCOPED_TRACE(C.Name);
    const Golden *G = findGolden(daemonGoldens(), C.Name);
    ASSERT_NE(G, nullptr);
    daemonExchange(C.Frame, *G, nullptr);
  }
}

TEST(BridgeProtocol, DaemonShedsBothFrameShapes) {
  const char *Shed =
      "2000000004736572766572206f7665726c6f616465643a2072657175657374207368"
      "6564";
  Golden Single = {"shed_features", Shed, 0, 0,
                   "serve.requests=+1,serve.shed=+1"};
  Golden Batch = {"shed_batch", Shed, 0, 0,
                  "serve.requests=+1,serve.shed=+1"};
  {
    SCOPED_TRACE("features");
    daemonExchange(featuresFrame(OptLevel::Warm, goodValues()), Single,
                   "serve.shed=always");
  }
  {
    SCOPED_TRACE("batch");
    daemonExchange(batchFrame({entry(OptLevel::Warm, goodValues()),
                               entry(OptLevel::Cold, goodValues())}),
                   Batch, "serve.shed=always");
  }
}

//===----------------------------------------------------------------------===//
// The frames ResilientModelClient writes
//===----------------------------------------------------------------------===//

FeatureVector clientFeatures(unsigned Salt) {
  FeatureVector F;
  for (unsigned I = 0; I < NumFeatures; ++I)
    F.set(I, (I * 13 + Salt) % 17);
  return F;
}

TEST(BridgeProtocol, ClientFramesMatchGoldens) {
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  ResilientModelClient::Config Cfg;
  Cfg.RequestTimeoutMs = ReadMs;
  Cfg.CacheCapacity = 0;
  ResilientModelClient Client(std::move(ClientEnd), Cfg);

  std::optional<uint64_t> Single;
  std::vector<std::optional<uint64_t>> Batch;
  std::thread Caller([&] {
    Single = Client.requestModifier(OptLevel::Hot, clientFeatures(1));
    Batch = Client.requestModifierBatch(
        {{OptLevel::Cold, clientFeatures(2)},
         {OptLevel::Scorching, clientFeatures(3)}});
  });

  std::vector<uint8_t> Hello = readRawFrame(*ServerEnd);
  Message Reply;
  Reply.Type = MsgType::Hello;
  Reply.Version = ProtocolVersion;
  writeFrame(*ServerEnd, frameOf(Reply));

  std::vector<uint8_t> Features = readRawFrame(*ServerEnd);
  Reply = Message();
  Reply.Type = MsgType::Modifier;
  Reply.ModifierBits = 0x1234;
  writeFrame(*ServerEnd, frameOf(Reply));

  std::vector<uint8_t> FeatureBatch = readRawFrame(*ServerEnd);
  Reply = Message();
  Reply.Type = MsgType::ModifierBatch;
  Reply.BatchModifiers = {{true, 7}, {false, 0}};
  writeFrame(*ServerEnd, frameOf(Reply));
  Caller.join();

  ASSERT_GE(Features.size(), 8u);
  ASSERT_GE(FeatureBatch.size(), 10u);
  auto Head = [](const std::vector<uint8_t> &F, size_t N) {
    return hex(std::vector<uint8_t>(F.begin(), F.begin() + N));
  };
  EXPECT_EQ(hex(Hello), "020000000101");
  EXPECT_EQ(digest(Features), "576:a6f2c49dffdc4d71");
  EXPECT_EQ(Head(Features, 8), "3c02000002024700");
  EXPECT_EQ(digest(FeatureBatch), "1149:e2b38e280265c95e");
  EXPECT_EQ(Head(FeatureBatch, 10), "79040000060200004700");
  EXPECT_EQ(Single, std::optional<uint64_t>(0x1234));
  ASSERT_EQ(Batch.size(), 2u);
  EXPECT_EQ(Batch[0], std::optional<uint64_t>(7));
  EXPECT_FALSE(Batch[1].has_value());
}

//===----------------------------------------------------------------------===//
// Fault-point hits per frame read
//===----------------------------------------------------------------------===//

const char *const ReadPoints[] = {"transport.read.short",
                                  "transport.read.timeout",
                                  "transport.read.delay",
                                  "transport.fifo.eintr"};

/// Arms every read-side point with a never-firing schedule, reads one
/// frame the peer already wrote, and returns "point=hits,..." for the
/// points that were hit.
std::string readHits(Transport &Writer, Transport &Reader, int TimeoutMs) {
  Message M;
  M.Type = MsgType::Modifier;
  M.ModifierBits = 99;
  EXPECT_TRUE(sendMessage(Writer, M));
  EXPECT_TRUE(FaultRegistry::global().arm(
      "transport.read.short=p0;transport.read.timeout=p0;"
      "transport.read.delay=p0;transport.fifo.eintr=p0",
      1));
  Message Out;
  RecvStatus S = recvMessageFor(Reader, Out, TimeoutMs);
  std::string Hits;
  for (const char *P : ReadPoints) {
    uint64_t N = FaultRegistry::global().hits(P);
    if (!N)
      continue;
    if (!Hits.empty())
      Hits += ",";
    Hits += std::string(P) + "=" + std::to_string(N);
  }
  FaultRegistry::global().disarm();
  EXPECT_EQ(S, RecvStatus::Ok);
  EXPECT_EQ(Out.ModifierBits, 99u);
  return Hits;
}

const char *const DeadlinePoints =
    "transport.read.short=2,transport.read.timeout=2,transport.read.delay=2";

TEST(BridgeProtocol, FaultPointHitsPerFrameReadInProcess) {
  auto [A, B] = InProcessPipe::makePair();
  EXPECT_EQ(readHits(*A, *B, -1), DeadlinePoints);
  EXPECT_EQ(readHits(*A, *B, ReadMs), DeadlinePoints);
}

TEST(BridgeProtocol, FaultPointHitsPerFrameReadFifo) {
  char Template[] = "/tmp/jitml_protocol_fifo_XXXXXX";
  std::string Dir = mkdtemp(Template);
  std::string ToServer = Dir + "/c2s", ToClient = Dir + "/s2c";
  ASSERT_TRUE(FifoTransport::createPipes(ToServer, ToClient));
  std::unique_ptr<FifoTransport> ServerT;
  std::thread Opener([&] {
    ServerT = FifoTransport::open(ToServer, ToClient, /*IsServer=*/true);
  });
  auto ClientT = FifoTransport::open(ToServer, ToClient, /*IsServer=*/false);
  Opener.join();
  ASSERT_NE(ClientT, nullptr);
  ASSERT_NE(ServerT, nullptr);
  // One read(2) per readBytesFor: the frame is already in the pipe.
  EXPECT_EQ(readHits(*ServerT, *ClientT, -1), "transport.fifo.eintr=2");
  EXPECT_EQ(readHits(*ServerT, *ClientT, ReadMs), "transport.fifo.eintr=2");
  ClientT.reset();
  ServerT.reset();
  ::unlink(ToServer.c_str());
  ::unlink(ToClient.c_str());
  ::rmdir(Dir.c_str());
}

TEST(BridgeProtocol, FaultPointHitsPerFrameReadSocket) {
  std::string Path = daemonSocketPath("hits");
  auto Listener = SocketListener::listen(Path);
  ASSERT_NE(Listener, nullptr);
  auto ClientT = SocketTransport::connect(Path);
  ASSERT_NE(ClientT, nullptr);
  auto ServerT = Listener->accept();
  ASSERT_NE(ServerT, nullptr);
  // Fails at the parent without a deadline: the blocking socket read
  // evaluated transport.read.short a second time (4 hits per frame).
  EXPECT_EQ(readHits(*ServerT, *ClientT, -1), DeadlinePoints);
  EXPECT_EQ(readHits(*ServerT, *ClientT, ReadMs), DeadlinePoints);
}

} // namespace

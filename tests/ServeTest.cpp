//===- tests/ServeTest.cpp - multi-client serving daemon ------------------===//
//
// The src/serve daemon must be a drop-in replacement for a private
// serveModel loop: same wire protocol, bit-identical answers, graceful
// degradation under overload and during hot model reloads. These tests
// drive it through real Unix-domain sockets with the production
// ResilientModelClient and compare every answer against the scalar
// prediction chain. The suite runs under both sanitizers via
// scripts/tier1.sh.
//
//===----------------------------------------------------------------------===//

#include "bridge/ModelService.h"
#include "bridge/ResilientClient.h"
#include "bridge/Transports.h"
#include "serve/Server.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace jitml;

namespace {

std::string uniqueSocketPath(const char *Tag) {
  return "/tmp/jitml-serve-test-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

std::string identityScalingText() {
  std::string S;
  for (unsigned I = 0; I < NumFeatures; ++I)
    S += std::to_string(I) + " 0 1\n";
  return S;
}

/// A real ModelSet covering Cold/Warm/Hot with identity scaling and a
/// 2-class linear model: label 1 wins when feature0 > feature1, label 2
/// otherwise. \p BitsBase keys the label->modifier map so two sets built
/// from different bases have disjoint answer sets (the reload tests tell
/// versions apart by bits alone).
ModelSet makeModelSet(uint64_t BitsBase) {
  ModelSet Set;
  for (unsigned L = 0; L < 3; ++L) { // Cold, Warm, Hot
    LevelModel &LM = Set.Levels[L];
    EXPECT_TRUE(Scaling::fromText(identityScalingText(), LM.Scale));
    LM.Labels.labelFor(BitsBase + 10 * L + 1); // label 1
    LM.Labels.labelFor(BitsBase + 10 * L + 2); // label 2
    LM.Model = LinearModel(2, NumFeatures);
    LM.Model.weight(0, 0) = 1.0;
    LM.Model.weight(1, 1) = 1.0;
    LM.Valid = true;
  }
  return Set;
}

/// A feature vector unique to (Tag, I); Tag parity decides which label
/// wins so both classes are exercised.
FeatureVector uniqueFeatures(unsigned Tag, unsigned I) {
  FeatureVector F;
  F.set(0, (Tag + I) % 2 ? 3 + I : 1);
  F.set(1, (Tag + I) % 2 ? 1 : 3 + I);
  F.set(2, 1 + Tag);
  F.set(3, I);
  return F;
}

/// serveModel backend that answers through the registry's scalar
/// prediction chain — the private single-client baseline the daemon must
/// match bit for bit.
class RegistryBackend : public ModelBackend {
public:
  explicit RegistryBackend(ModelRegistry &R) : R(R) {}
  std::optional<uint64_t>
  predictModifier(OptLevel Level,
                  const std::vector<double> &Raw) override {
    std::shared_ptr<const ServeModel> M = R.snapshot();
    if (!M || Raw.size() != NumFeatures)
      return std::nullopt;
    FeatureVector FV;
    for (unsigned I = 0; I < NumFeatures; ++I)
      FV.set(I, (uint32_t)Raw[I]);
    return M->predict(Level, FV);
  }

private:
  ModelRegistry &R;
};

/// Daemon + registry with one installed model, plus client factories.
struct ServeHarness {
  ModelRegistry Registry;
  ServeConfig Cfg;
  std::unique_ptr<ModelServer> Server;

  explicit ServeHarness(const char *Tag, uint64_t BitsBase = 100,
                        size_t MaxInflight = 4096, size_t CacheCap = 4096) {
    Registry.install(makeModelSet(BitsBase));
    Cfg.SocketPath = uniqueSocketPath(Tag);
    Cfg.MaxInflight = MaxInflight;
    Cfg.CacheCapacity = CacheCap;
    Cfg.BatchDeadlineUs = 200;
    Server = std::make_unique<ModelServer>(Registry, Cfg);
  }
  ~ServeHarness() {
    if (Server)
      Server->stop();
  }

  ResilientModelClient::TransportFactory factory() {
    std::string Path = Cfg.SocketPath;
    return [Path]() -> std::unique_ptr<Transport> {
      return SocketTransport::connect(Path);
    };
  }

  std::unique_ptr<ResilientModelClient>
  client(size_t CacheCapacity = 0, bool CacheErrors = false) {
    ResilientModelClient::Config C;
    C.RequestTimeoutMs = 10000; // generous: sanitizer builds are slow
    C.CacheCapacity = CacheCapacity;
    C.CacheErrorReplies = CacheErrors;
    return std::make_unique<ResilientModelClient>(factory(), C);
  }
};

} // namespace

TEST(Serve, StartStopIdempotent) {
  ServeHarness H("startstop");
  ASSERT_TRUE(H.Server->start());
  EXPECT_TRUE(H.Server->running());
  H.Server->stop();
  EXPECT_FALSE(H.Server->running());
  H.Server->stop(); // second stop is a no-op
}

TEST(Serve, StartFailsOnUnbindablePath) {
  ModelRegistry R;
  ServeConfig C;
  C.SocketPath = "/nonexistent-dir/jitml.sock";
  ModelServer S(R, C);
  EXPECT_FALSE(S.start());
  EXPECT_FALSE(S.running());
}

TEST(Serve, SingleClientMatchesScalarChain) {
  ServeHarness H("single");
  ASSERT_TRUE(H.Server->start());
  auto Client = H.client();
  std::shared_ptr<const ServeModel> M = H.Registry.snapshot();
  for (unsigned I = 0; I < 30; ++I) {
    OptLevel Level = (OptLevel)(I % 3);
    FeatureVector F = uniqueFeatures(1, I);
    std::optional<uint64_t> Want = M->predict(Level, F);
    std::optional<uint64_t> Got = Client->requestModifier(Level, F);
    ASSERT_TRUE(Want.has_value());
    ASSERT_TRUE(Got.has_value()) << "request " << I;
    EXPECT_EQ(*Got, *Want) << "request " << I;
  }
  // Uncovered level: definitive Error reply, client falls back.
  EXPECT_FALSE(
      Client->requestModifier(OptLevel::Scorching, uniqueFeatures(1, 0))
          .has_value());
  ModelServer::Stats S = H.Server->stats();
  EXPECT_GE(S.Served, 30u); // cache-hit answers count as served too
  EXPECT_GE(S.Degraded, 1u);
  EXPECT_EQ(S.Shed, 0u);
}

TEST(Serve, MultiClientBitIdenticalToPrivateServer) {
  // K clients, each its own socket connection, racing through the daemon's
  // shared batcher — every client's modifier stream must be bit-identical
  // to the same stream served by a private single-client serveModel loop.
  constexpr unsigned K = 8, M = 40;
  ServeHarness H("identical");
  ASSERT_TRUE(H.Server->start());

  std::vector<std::vector<std::optional<uint64_t>>> Daemon(K), Priv(K);
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < K; ++T)
    Threads.emplace_back([&, T] {
      auto Client = H.client();
      for (unsigned I = 0; I < M; ++I)
        Daemon[T].push_back(Client->requestModifier(
            (OptLevel)(I % 3), uniqueFeatures(T, I)));
    });
  for (std::thread &Th : Threads)
    Th.join();

  // The private baseline: one serveModel loop per client over an
  // in-process pipe, scalar prediction chain.
  for (unsigned T = 0; T < K; ++T) {
    auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
    RegistryBackend Backend(H.Registry);
    InProcessPipe *Raw = ServerEnd.release();
    std::thread Server([&, Raw] {
      serveModel(*Raw, Backend);
      delete Raw;
    });
    ResilientModelClient::Config C;
    C.RequestTimeoutMs = 10000;
    C.CacheCapacity = 0;
    ResilientModelClient Client(std::move(ClientEnd), C);
    for (unsigned I = 0; I < M; ++I)
      Priv[T].push_back(Client.requestModifier((OptLevel)(I % 3),
                                               uniqueFeatures(T, I)));
    Client.bye();
    Server.join();
  }

  ModelServer::Stats S = H.Server->stats();
  EXPECT_EQ(S.Shed, 0u); // ample MaxInflight: identity is unconditional
  for (unsigned T = 0; T < K; ++T)
    EXPECT_EQ(Daemon[T], Priv[T]) << "client " << T;
  EXPECT_EQ(S.Entries, (uint64_t)K * M);
  EXPECT_EQ(S.Served, (uint64_t)K * M); // every entry answered for real
}

TEST(Serve, BatchFrameAnswersEveryEntryInOrder) {
  ServeHarness H("batch");
  ASSERT_TRUE(H.Server->start());
  auto Client = H.client();
  std::shared_ptr<const ServeModel> M = H.Registry.snapshot();

  std::vector<ResilientModelClient::BatchRequest> Items;
  for (unsigned I = 0; I < 12; ++I)
    Items.push_back({I % 4 == 3 ? OptLevel::Scorching : (OptLevel)(I % 3),
                     uniqueFeatures(5, I)});
  std::vector<std::optional<uint64_t>> Got =
      Client->requestModifierBatch(Items);
  ASSERT_EQ(Got.size(), Items.size());
  for (unsigned I = 0; I < Items.size(); ++I) {
    std::optional<uint64_t> Want = M->predict(Items[I].Level,
                                              Items[I].Features);
    EXPECT_EQ(Got[I], Want) << "entry " << I;
    if (I % 4 == 3) {
      EXPECT_FALSE(Got[I].has_value()) << "entry " << I;
    }
  }
  ModelServer::Stats S = H.Server->stats();
  EXPECT_EQ(S.BatchRequests, 1u);
  EXPECT_EQ(S.Entries, Items.size());
}

TEST(Serve, SharedCacheServesRepeatAcrossClients) {
  ServeHarness H("cache");
  ASSERT_TRUE(H.Server->start());
  FeatureVector F = uniqueFeatures(9, 9);

  auto A = H.client();
  std::optional<uint64_t> First = A->requestModifier(OptLevel::Warm, F);
  ASSERT_TRUE(First.has_value());

  // A different client, different connection, same shape: the daemon's
  // shared cache answers without another batcher trip.
  auto B = H.client();
  std::optional<uint64_t> Second = B->requestModifier(OptLevel::Warm, F);
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(*Second, *First);
  ModelServer::Stats S = H.Server->stats();
  EXPECT_GE(S.CacheHits, 1u);
  PredictionCache::Stats CS = H.Server->cache().stats();
  EXPECT_GE(CS.Hits, 1u);
}

TEST(Serve, HotReloadMidTrafficNeverTearsAnswers) {
  // Version A maps labels to bits in [100, 130); version B to [500, 530).
  // While traffic hammers the daemon, install B mid-stream: every answer
  // must be a complete A answer or a complete B answer — never zero,
  // never a mix — and the registry must finish on B.
  ServeHarness H("reload", /*BitsBase=*/100);
  ASSERT_TRUE(H.Server->start());

  constexpr unsigned K = 4, M = 60;
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < K; ++T)
    Threads.emplace_back([&, T] {
      auto Client = H.client();
      for (unsigned I = 0; I < M; ++I) {
        std::optional<uint64_t> Got = Client->requestModifier(
            (OptLevel)(I % 3), uniqueFeatures(T, I));
        if (!Got || !((*Got >= 100 && *Got < 130) ||
                      (*Got >= 500 && *Got < 530)))
          ++Wrong;
      }
    });
  // Let traffic start, then hot-swap the model.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  uint64_t V2 = H.Registry.install(makeModelSet(/*BitsBase=*/500));
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(H.Registry.version(), V2);

  // Post-reload requests answer exclusively from version B (the cache is
  // version-keyed, so no stale A bits can leak through).
  auto Client = H.client();
  for (unsigned I = 0; I < 10; ++I) {
    std::optional<uint64_t> Got =
        Client->requestModifier(OptLevel::Cold, uniqueFeatures(77, I));
    ASSERT_TRUE(Got.has_value());
    EXPECT_TRUE(*Got >= 500 && *Got < 530) << *Got;
  }
}

TEST(Serve, TornReloadKeepsPriorVersionServing) {
  ServeHarness H("torn", /*BitsBase=*/100);
  ASSERT_TRUE(H.Server->start());
  uint64_t V1 = H.Registry.version();

  // Write a truncated bundle (no trailing @end): the classic torn file.
  std::string Full = ModelRegistry::bundleText(makeModelSet(500));
  std::string Torn = Full.substr(0, Full.size() - 5); // drops "@end\n"
  std::string Path = uniqueSocketPath("torn-bundle") + ".txt";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(Torn.data(), 1, Torn.size(), F);
  std::fclose(F);

  EXPECT_FALSE(H.Registry.reloadFromFile(Path));
  EXPECT_EQ(H.Registry.version(), V1);
  EXPECT_EQ(H.Registry.reloadFailures(), 1u);

  // Still serving version A bits.
  auto Client = H.client();
  std::optional<uint64_t> Got =
      Client->requestModifier(OptLevel::Warm, uniqueFeatures(2, 2));
  ASSERT_TRUE(Got.has_value());
  EXPECT_TRUE(*Got >= 100 && *Got < 130);

  // The intact bundle installs fine.
  F = std::fopen(Path.c_str(), "w");
  ASSERT_NE(F, nullptr);
  std::fwrite(Full.data(), 1, Full.size(), F);
  std::fclose(F);
  EXPECT_TRUE(H.Registry.reloadFromFile(Path));
  EXPECT_GT(H.Registry.version(), V1);
  std::remove(Path.c_str());
}

TEST(Serve, ShedOverCapacityDegradesToFallback) {
  // MaxInflight=0: every prediction that would need the batcher is shed
  // with an Error reply, which the client treats as a definitive
  // fallback. Wrong bits are impossible; only degraded answers.
  ServeHarness H("shed", /*BitsBase=*/100, /*MaxInflight=*/0,
                 /*CacheCap=*/0);
  ASSERT_TRUE(H.Server->start());
  auto Client = H.client();
  constexpr unsigned N = 20;
  for (unsigned I = 0; I < N; ++I)
    EXPECT_FALSE(
        Client->requestModifier(OptLevel::Warm, uniqueFeatures(4, I))
            .has_value());
  ModelServer::Stats S = H.Server->stats();
  EXPECT_EQ(S.Shed, (uint64_t)N);
  EXPECT_EQ(S.ShedEntries, (uint64_t)N);
  EXPECT_EQ(S.Served, 0u);
  BridgeCounters C = Client->counters();
  EXPECT_EQ(C.Fallbacks, (uint64_t)N);
  EXPECT_EQ(C.ErrorReplies, (uint64_t)N);
}

TEST(Serve, DrainAnswersAdmittedRequestsBeforeShutdown) {
  ServeHarness H("drain");
  ASSERT_TRUE(H.Server->start());
  // A slow backend keeps the request inflight long enough for stop() to
  // land mid-flight; drain must still deliver the real answer.
  FaultRegistry::global().arm("serve.backend.slow=always:100", 1);
  std::shared_ptr<const ServeModel> M = H.Registry.snapshot();
  FeatureVector F = uniqueFeatures(6, 6);
  std::optional<uint64_t> Want = M->predict(OptLevel::Hot, F);

  std::optional<uint64_t> Got;
  auto Client = H.client();
  std::thread Requester(
      [&] { Got = Client->requestModifier(OptLevel::Hot, F); });
  // Wait until the daemon has admitted the request (the 100ms slow-model
  // window makes missing it implausible, but correctness below does not
  // depend on winning the race)...
  for (unsigned Spin = 0; Spin < 2000 && H.Server->stats().Inflight == 0;
       ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // ...then stop mid-flight: the drain must answer it, not orphan it.
  H.Server->stop();
  Requester.join();
  FaultRegistry::global().disarm();

  ASSERT_TRUE(Want.has_value());
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, *Want);
  EXPECT_EQ(H.Server->stats().Inflight, 0u);
}

TEST(Serve, DaemonRejectsMismatchedHelloVersion) {
  ServeHarness H("hello");
  ASSERT_TRUE(H.Server->start());
  auto T = SocketTransport::connect(H.Cfg.SocketPath);
  ASSERT_NE(T, nullptr);

  Message M;
  M.Type = MsgType::Hello;
  M.Version = ProtocolVersion + 1;
  ASSERT_TRUE(sendMessage(*T, M));
  Message Reply;
  ASSERT_TRUE(recvMessage(*T, Reply));
  EXPECT_EQ(Reply.Type, MsgType::Error);

  // The session survives the rejection: a correct Hello then succeeds.
  M.Version = ProtocolVersion;
  ASSERT_TRUE(sendMessage(*T, M));
  ASSERT_TRUE(recvMessage(*T, Reply));
  EXPECT_EQ(Reply.Type, MsgType::Hello);
  EXPECT_EQ(Reply.Version, ProtocolVersion);
  EXPECT_GE(H.Server->stats().HelloRejects, 1u);
}

TEST(Serve, ServeModelRejectsMismatchedHelloVersion) {
  // Satellite fix: the single-client serveModel loop must reject a
  // mismatched Hello with an Error reply instead of silently answering.
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  ModelRegistry R;
  R.install(makeModelSet(100));
  RegistryBackend Backend(R);
  InProcessPipe *Raw = ServerEnd.release();
  ServeStats Stats;
  std::thread Server([&, Raw] {
    Stats = serveModel(*Raw, Backend);
    delete Raw;
  });

  Message M;
  M.Type = MsgType::Hello;
  M.Version = ProtocolVersion + 1;
  ASSERT_TRUE(sendMessage(*ClientEnd, M));
  Message Reply;
  ASSERT_TRUE(recvMessage(*ClientEnd, Reply));
  EXPECT_EQ(Reply.Type, MsgType::Error);

  M.Type = MsgType::Bye;
  sendMessage(*ClientEnd, M);
  Server.join();
  EXPECT_EQ(Stats.HelloRejects, 1u);
  EXPECT_EQ(Stats.answered(), 0u);
}

TEST(Serve, ServeModelReportsServedVersusDegraded) {
  // Satellite fix: serveModel's return value breaks answers down into
  // real Modifier replies vs degraded ("no model") replies.
  auto [ClientEnd, ServerEnd] = InProcessPipe::makePair();
  ModelRegistry R;
  R.install(makeModelSet(100));
  RegistryBackend Backend(R);
  InProcessPipe *Raw = ServerEnd.release();
  ServeStats Stats;
  std::thread Server([&, Raw] {
    Stats = serveModel(*Raw, Backend);
    delete Raw;
  });

  ResilientModelClient::Config Cfg;
  Cfg.RequestTimeoutMs = 10000;
  Cfg.CacheCapacity = 0;
  ResilientModelClient Client(std::move(ClientEnd), Cfg);
  // 3 covered requests, 2 uncovered (Scorching has no model).
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_TRUE(Client.requestModifier(OptLevel::Warm, uniqueFeatures(1, I))
                    .has_value());
  for (unsigned I = 0; I < 2; ++I)
    EXPECT_FALSE(
        Client.requestModifier(OptLevel::Scorching, uniqueFeatures(1, I))
            .has_value());
  Client.bye();
  Server.join();

  EXPECT_EQ(Stats.Served, 3u);
  EXPECT_EQ(Stats.Degraded, 2u);
  EXPECT_EQ(Stats.answered(), 5u);
  EXPECT_EQ(Stats.HelloRejects, 0u);
}

TEST(Serve, PredictionCacheLruAndVersionIsolation) {
  PredictionCache C(/*Capacity=*/2);
  std::optional<uint64_t> A;
  EXPECT_FALSE(C.lookup(1, OptLevel::Warm, 111, A));
  C.insert(1, OptLevel::Warm, 111, 42);
  C.insert(1, OptLevel::Warm, 222, std::nullopt); // negative answers cache
  ASSERT_TRUE(C.lookup(1, OptLevel::Warm, 111, A));
  EXPECT_EQ(A, std::optional<uint64_t>(42));
  ASSERT_TRUE(C.lookup(1, OptLevel::Warm, 222, A));
  EXPECT_FALSE(A.has_value());

  // A new model version never sees the old version's entries.
  EXPECT_FALSE(C.lookup(2, OptLevel::Warm, 111, A));

  // Touch 111 (most recent), insert a third key: 222 is the LRU victim.
  ASSERT_TRUE(C.lookup(1, OptLevel::Warm, 111, A));
  C.insert(1, OptLevel::Warm, 333, 99);
  EXPECT_TRUE(C.lookup(1, OptLevel::Warm, 111, A));
  EXPECT_FALSE(C.lookup(1, OptLevel::Warm, 222, A));
  PredictionCache::Stats S = C.stats();
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_GE(S.Evictions, 1u);

  // Capacity 0 disables caching entirely.
  PredictionCache Off(0);
  Off.insert(1, OptLevel::Warm, 1, 1);
  EXPECT_FALSE(Off.lookup(1, OptLevel::Warm, 1, A));
}

TEST(Serve, BundleRoundTripPreservesPredictions) {
  ModelSet Set = makeModelSet(700);
  std::string Text = ModelRegistry::bundleText(Set);
  ModelSet Parsed;
  std::string Error;
  ASSERT_TRUE(ModelRegistry::parseBundle(Text, Parsed, &Error)) << Error;

  ServeModel A, B;
  A.Set = Set;
  B.Set = Parsed;
  for (unsigned I = 0; I < 20; ++I) {
    OptLevel Level = (OptLevel)(I % 3);
    FeatureVector F = uniqueFeatures(8, I);
    EXPECT_EQ(A.predict(Level, F), B.predict(Level, F)) << "request " << I;
  }
  // Uncovered levels stay uncovered through the round trip.
  EXPECT_FALSE(Parsed.Levels[(unsigned)OptLevel::Scorching].Valid);

  // Any truncation point is detected (missing @end, torn sections, bad
  // header) — a torn write can never install.
  for (size_t Cut : {Text.size() - 5, Text.size() / 2, (size_t)10}) {
    ModelSet T;
    EXPECT_FALSE(ModelRegistry::parseBundle(Text.substr(0, Cut), T))
        << "cut at " << Cut;
  }
}

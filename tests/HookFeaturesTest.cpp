//===- tests/HookFeaturesTest.cpp - hook features are recorded features ---===//
//
// Pins the Strategy Control contract of Figure 5 step d: the feature
// vector a modifier hook decides on is the vector the compilation records,
// and both are the features of the method's freshly generated IL. Checked
// for every method of every workload program at cold and warm, in the
// three ways a compile can consult a model: the synchronous VM with a
// per-method hook, the async pipeline with a per-task hook, and the async
// pipeline with a batch hook. The async runs hold the first prediction
// until the whole level is queued, so the batch hook serves real
// multi-method batches. These suites also run under ThreadSanitizer
// (scripts/tier1.sh, -DJITML_TSAN=ON).
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "features/FeatureExtractor.h"
#include "il/ILGenerator.h"
#include "runtime/VirtualMachine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <map>
#include <mutex>

using namespace jitml;

namespace {

using Key = std::pair<uint32_t, OptLevel>;
using FeatureMap = std::map<Key, FeatureVector>;

const OptLevel LevelsServed[] = {OptLevel::Cold, OptLevel::Warm};

/// Thread-safe record of the features each (method, level) was decided on.
struct HookLog {
  std::mutex Mu;
  FeatureMap Seen;
  void note(uint32_t M, OptLevel L, const FeatureVector &F) {
    std::lock_guard<std::mutex> Lock(Mu);
    EXPECT_TRUE(Seen.emplace(Key(M, L), F).second)
        << "hook consulted twice for method " << M;
  }
};

struct EventLog : JitEventListener {
  FeatureMap Recorded;
  void onMethodEnter(uint32_t, const TscSample &) override {}
  void onMethodExit(uint32_t, const TscSample &, bool) override {}
  void onCompile(const CompileEvent &E) override {
    EXPECT_TRUE(Recorded.emplace(Key(E.MethodIndex, E.Level), E.Features)
                    .second)
        << "method " << E.MethodIndex << " recorded twice";
  }
};

void expectSameFeatures(const Program &P, const FeatureMap &Hook,
                        const FeatureMap &Recorded, const char *Mode) {
  ASSERT_EQ(Hook.size(), (size_t)P.numMethods() * 2) << Mode;
  ASSERT_EQ(Recorded.size(), Hook.size()) << Mode;
  for (uint32_t M = 0; M < P.numMethods(); ++M) {
    FeatureVector Fresh = extractFeatures(*generateIL(P, M));
    for (OptLevel L : LevelsServed) {
      SCOPED_TRACE(std::string(Mode) + ": method " + std::to_string(M) +
                   " at " + optLevelName(L));
      EXPECT_TRUE(Hook.at(Key(M, L)) == Fresh);
      EXPECT_TRUE(Recorded.at(Key(M, L)) == Fresh);
    }
  }
}

/// Compiles every method at \p Level through a fresh pipeline whose hooks
/// \p Install sets up given a gate that opens once all requests are
/// queued; records each completion's features.
template <typename InstallFn>
void compileLevelAsync(const Program &P, OptLevel Level, InstallFn Install,
                       FeatureMap &Recorded) {
  CostModel Cost;
  CodeCache Cache;
  Cache.reset(P.numMethods());
  AsyncCompilePipeline::Config C;
  C.Workers = 2;
  C.QueueCapacity = P.numMethods();
  C.MaxPredictBatch = 8;
  AsyncCompilePipeline Pipe(P, Cost, Cache, C);
  std::promise<void> Queued;
  Install(Pipe, Queued.get_future().share());
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    ASSERT_EQ(Pipe.request(M, Level, false, 1),
              CompilationQueue::EnqueueResult::Enqueued);
  Queued.set_value();
  Pipe.drain();
  for (const CompileCompletion &Done : Pipe.takeCompletions()) {
    EXPECT_FALSE(Done.HookFailed);
    Recorded.emplace(Key(Done.MethodIndex, Done.Level), Done.Features);
  }
}

class HookFeatures : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(HookFeatures, HookSeesRecordedFeatures) {
  Program P = buildWorkload(workloadByCode(GetParam()));

  {
    HookLog Hook;
    EventLog Events;
    VirtualMachine VM(P, VirtualMachine::Config());
    VM.setModifierHook(
        [&](uint32_t M, OptLevel L, const FeatureVector &F) {
          Hook.note(M, L, F);
          return PlanModifier();
        });
    VM.setListener(&Events);
    for (OptLevel L : LevelsServed)
      for (uint32_t M = 0; M < P.numMethods(); ++M)
        VM.compileMethod(M, L);
    EXPECT_EQ(VM.stats().HookFailures, 0u);
    expectSameFeatures(P, Hook.Seen, Events.Recorded, "sync VM");
  }

  {
    HookLog Hook;
    FeatureMap Recorded;
    for (OptLevel L : LevelsServed)
      compileLevelAsync(
          P, L,
          [&](AsyncCompilePipeline &Pipe, std::shared_future<void> Queued) {
            Pipe.setModifierHook(
                [&Hook, Queued](uint32_t M, OptLevel Lv,
                                const FeatureVector &F) {
                  Queued.wait();
                  Hook.note(M, Lv, F);
                  return PlanModifier();
                });
          },
          Recorded);
    expectSameFeatures(P, Hook.Seen, Recorded, "async per-task hook");
  }

  {
    HookLog Hook;
    FeatureMap Recorded;
    std::atomic<size_t> MaxBatch{0};
    for (OptLevel L : LevelsServed)
      compileLevelAsync(
          P, L,
          [&](AsyncCompilePipeline &Pipe, std::shared_future<void> Queued) {
            Pipe.setBatchModifierHook(
                [&Hook, &MaxBatch, Queued](
                    const std::vector<AsyncCompilePipeline::BatchPredictItem>
                        &Items) {
                  Queued.wait();
                  for (const auto &I : Items)
                    Hook.note(I.MethodIndex, I.Level, I.Features);
                  size_t Seen = MaxBatch.load();
                  while (Seen < Items.size() &&
                         !MaxBatch.compare_exchange_weak(Seen, Items.size()))
                    ;
                  return std::vector<PlanModifier>(Items.size());
                });
          },
          Recorded);
    EXPECT_GT(MaxBatch.load(), 1u); // the multi-method branch ran
    expectSameFeatures(P, Hook.Seen, Recorded, "async batch hook");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, HookFeatures,
    ::testing::ValuesIn(jitml::testing::allWorkloadCodes()),
    [](const auto &Info) { return Info.param; });

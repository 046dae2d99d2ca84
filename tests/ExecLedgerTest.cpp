//===- tests/ExecLedgerTest.cpp - Bit-exact execution ledger pins ---------===//
//
// Pins the simulated cycle ledger of native execution bit for bit. For
// every workload program, one default-config start-up and one instrumented
// collection session (randomized search) run with fixed seeds; a digest of
// the checksum, the bit patterns of AppCycles and CompileCycles, every
// Stats counter, the clock's migration count and, for the collection
// session, every record's cycle bits must equal the golden constants
// below. A change to what the executor charges, or to how the running sums
// round, shows up as a digest mismatch even when the totals agree to many
// decimal places.
//
// The goldens were captured with an executor that recomputed every charge
// per executed instruction. Re-capturing them is only right for a change
// that is meant to move simulated time; a host-time optimization must
// leave them as they are.
//
// The executor charges the execution tables generateCode attaches to
// each body, so a third check recomputes those tables from the cost model
// for every method of every workload at every level, under the null
// modifier and a random one, with the default and a non-default model.
//
//===----------------------------------------------------------------------===//

#include "TestPrograms.h"

#include "codegen/CostModel.h"
#include "collect/CollectionListener.h"
#include "modifiers/StrategyControl.h"
#include "runtime/AsyncCompiler.h"
#include "runtime/VirtualMachine.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

using namespace jitml;

namespace {

uint64_t bitsOf(double D) {
  uint64_t B;
  std::memcpy(&B, &D, sizeof B);
  return B;
}

/// Order-sensitive 64-bit digest.
struct Digest {
  uint64_t H = 0x1edb7e5eedULL;
  void add(uint64_t W) { H = mix64(H ^ W) + 0x9e3779b97f4a7c15ULL; }
  void add(double D) { add(bitsOf(D)); }
};

void addStats(Digest &D, VirtualMachine &VM) {
  const VirtualMachine::Stats &S = VM.stats();
  D.add(S.AppCycles);
  D.add(S.CompileCycles);
  D.add(S.Compilations);
  D.add(S.ExplorationRecompiles);
  D.add(S.Invocations);
  D.add(S.InterpretedInvocations);
  D.add(S.ExceptionsRaised);
  D.add(S.NullModifierCompilations);
  D.add(S.HookFailures);
  D.add(S.AsyncCompileCycles);
  D.add(S.AsyncCompileRequests);
  D.add(S.AsyncCoalescedRequests);
  D.add(S.AsyncQueueOverflows);
  D.add(S.AsyncInstalls);
  D.add(S.AsyncStaleCompiles);
  D.add(VM.clock().migrations());
  D.add(VM.clock().cycles());
}

/// One default-config start-up (a single application iteration, as the
/// harness measures start-up).
uint64_t startupDigest(const WorkloadSpec &Spec) {
  Program P = buildWorkload(Spec);
  VirtualMachine::Config Cfg;
  Cfg.Clock.Seed = mix64(Spec.Seed ^ 0x5747);
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.run({Value::ofI(0)});
  EXPECT_FALSE(R.Exceptional);
  Digest D;
  D.add((uint64_t)R.Ret.I);
  addStats(D, VM);
  return D.H;
}

/// One instrumented collection session with the training defaults, cut to
/// a few iterations.
uint64_t collectionDigest(const WorkloadSpec &Spec, size_t &NumRecords) {
  Program P = buildWorkload(Spec);
  StrategyConfig SC;
  SC.Strategy = SearchStrategy::Randomized;
  SC.ModifiersPerLevel = 48;
  SC.UsesPerModifier = 3;
  SC.MaxRecompilesPerMethod = 80;
  SC.Seed = mix64(Spec.Seed ^ 0xc011);
  StrategyControl Control(SC);

  VirtualMachine::Config Cfg;
  Cfg.Control.CollectMode = true;
  Cfg.Control.ExplorationTargetCycles = 3e4;
  Cfg.Control.ExplorationMinInvocations = 10;
  for (unsigned LC = 0; LC < 3; ++LC)
    Cfg.Control.InvocationTriggers[1][LC] *= 3;
  Cfg.Control.CycleTriggers[1] *= 3;
  Cfg.InstrumentMethods = true;
  Cfg.Clock.Seed = mix64(Spec.Seed ^ 0xc0ec7);
  VirtualMachine VM(P, Cfg);

  CollectionListener Listener(P);
  VM.setListener(&Listener);
  VM.setModifierHook([&Control](uint32_t Method, OptLevel Level,
                                const FeatureVector &) {
    return Control.modifierFor(Method, Level);
  });
  VM.setRecompileGate([&Control](uint32_t Method) {
    if (Control.methodFrozen(Method) || Control.explorationExhausted())
      return false;
    Control.noteRecompile(Method);
    return true;
  });

  Digest D;
  for (unsigned I = 0; I < 6; ++I) {
    ExecResult R = VM.run({Value::ofI((int64_t)I)});
    EXPECT_FALSE(R.Exceptional);
    D.add((uint64_t)R.Ret.I);
  }
  Listener.finalize();
  addStats(D, VM);
  D.add(Listener.discardedSamples());

  // The order in which finalize() closes the still-open records is not
  // part of the ledger, so the records enter the digest sorted.
  using Row = std::tuple<uint32_t, int, uint64_t, uint64_t, uint64_t,
                         uint64_t, uint64_t, uint64_t>;
  std::vector<Row> Rows;
  for (const CollectionRecord &Rec : Listener.records())
    Rows.emplace_back(Rec.SignatureId, (int)Rec.Level, Rec.ModifierBits,
                      Rec.Features.hash(), Rec.Invocations,
                      Rec.DiscardedSamples, bitsOf(Rec.RunCycles),
                      bitsOf(Rec.CompileCycles));
  std::sort(Rows.begin(), Rows.end());
  for (const Row &R : Rows) {
    D.add((uint64_t)std::get<0>(R));
    D.add((uint64_t)std::get<1>(R));
    D.add(std::get<2>(R));
    D.add(std::get<3>(R));
    D.add(std::get<4>(R));
    D.add(std::get<5>(R));
    D.add(std::get<6>(R));
    D.add(std::get<7>(R));
  }
  NumRecords = Rows.size();
  return D.H;
}

struct Golden {
  uint64_t Startup;
  uint64_t Collection;
  size_t Records;
};

const std::map<std::string, Golden> &goldens() {
  static const std::map<std::string, Golden> G = {
      {"co", {0x7512317a86e051f4ULL, 0x8146bc6f045329a3ULL, 162}},
      {"js", {0x0c716166a52423bbULL, 0x52fa29350b16776dULL, 198}},
      {"db", {0x5122cefe4cb838faULL, 0x1c9a5d96ec410ba0ULL, 158}},
      {"jc", {0xfd980914cd046eccULL, 0x1540a3748a622c4dULL, 194}},
      {"mp", {0x466dcd3a81925dbcULL, 0x057d53f5b71c0584ULL, 113}},
      {"mt", {0x51a03b9e2edcfb9cULL, 0xd4d19b86eb4da88eULL, 162}},
      {"rt", {0xa1880b2c2176d90cULL, 0x10ce199fc9f10384ULL, 230}},
      {"jk", {0x800360a37d9bfc3bULL, 0x564295de5703b97fULL, 163}},
      {"av", {0xb2783510ee12d0a5ULL, 0xa6db459a2685d455ULL, 183}},
      {"ba", {0xd84ad2396b785d2bULL, 0x48585f74d88361dfULL, 115}},
      {"ec", {0xecafb4f2d124df97ULL, 0x0fcaad86fd1c71ecULL, 171}},
      {"fo", {0x416ad4fc61072c49ULL, 0xb854c8e5b5eb794dULL, 147}},
      {"h2", {0xb07fe8cca789e1e4ULL, 0x34b04dd4094b9402ULL, 150}},
      {"jy", {0x6833a2ea3b6cb2a5ULL, 0xee3f44977ce907e6ULL, 176}},
      {"lu", {0x177ffcfb5ad44c35ULL, 0x0c606f463e48951fULL, 184}},
      {"ls", {0x19519dc4ea3cca1bULL, 0xdd4abd6a7f47998eULL, 160}},
      {"pm", {0xb5c11ba8bd256025ULL, 0x679b061e2720654fULL, 178}},
      {"sf", {0x654d1fb28630178dULL, 0xdeed6987efec393bULL, 215}},
      {"tc", {0xfe5c2d054fb1b7ebULL, 0xac42f98b6e154d58ULL, 175}},
      {"xa", {0x9770a3ab699edcc9ULL, 0x4fbf6472647e74a8ULL, 192}},
  };
  return G;
}

/// Recomputes \p Code's execution tables from \p CM the way the reference
/// executor charged them, and compares bit for bit.
void expectTablesMatch(const NativeMethod &Code, const CostModel &CM) {
  double ICache = Code.ICacheFactor;
  EXPECT_EQ(bitsOf(Code.TakenCharge), bitsOf(CM.BranchTakenExtra * ICache));
  std::vector<uint32_t> Pos(Code.Blocks.size(), UINT32_MAX);
  for (uint32_t I = 0; I < Code.Layout.size(); ++I)
    Pos[Code.Layout[I]] = I;
  for (uint32_t BI = 0; BI < Code.Blocks.size(); ++BI) {
    const NativeBlock &B = Code.Blocks[BI];
    SCOPED_TRACE("block " + std::to_string(BI));
    EXPECT_EQ(B.LayoutPos, Pos[BI]);
    EXPECT_EQ(bitsOf(B.EntryCharge), bitsOf(B.SpillPenalty * ICache));
    ASSERT_EQ(B.InstCharge.size(), B.Insts.size());
    for (size_t K = 0; K < B.Insts.size(); ++K) {
      const NativeInst &I = B.Insts[K];
      double Cost = CM.instCost(I);
      if (K > 0) {
        uint16_t Prev = B.Insts[K - 1].Dst;
        bool Uses = I.A == Prev || I.B == Prev;
        for (uint16_t R : I.Args)
          Uses = Uses || R == Prev;
        if (Prev != NoReg && Uses)
          Cost += CM.StallCost;
      }
      EXPECT_EQ(bitsOf(B.InstCharge[K]), bitsOf(Cost * ICache))
          << "inst " << K << ": " << printNativeInst(I);
    }
  }
}

class ExecLedger : public ::testing::TestWithParam<std::string> {};

TEST_P(ExecLedger, CompiledTablesMatchCostModel) {
  Program P = buildWorkload(workloadByCode(GetParam()));
  // Stall, branch, spill, ALU and icache figures that differ from defaults.
  CostModel Odd;
  Odd.StallCost = 3.0;
  Odd.BranchTakenExtra = 5.0;
  Odd.SpillCost = 7.0;
  Odd.PhysRegs = 4;
  Odd.Alu = 1.5;
  Odd.ICacheWarmCapacity = 64.0;
  const CostModel *Models[] = {&CostModel::defaults(), &Odd};
  Rng R(mix64(workloadByCode(GetParam()).Seed));
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    for (unsigned L = 0; L < NumOptLevels; ++L) {
      PlanModifier Random = PlanModifier::fromRaw(
          R.next() & ((1ULL << NumTransformations) - 1));
      for (const PlanModifier &Mod : {PlanModifier(), Random})
        for (const CostModel *CM : Models) {
          SCOPED_TRACE("method " + std::to_string(M) + " at " +
                       optLevelName((OptLevel)L) + ", modifier " +
                       std::to_string(Mod.raw()));
          PreparedMethod Prep = prepareMethod(P, M);
          std::unique_ptr<NativeMethod> Code =
              finishMethod(Prep, planForLevel((OptLevel)L), Mod, *CM);
          expectTablesMatch(*Code, *CM);
        }
    }
}

TEST_P(ExecLedger, StartupMatchesGolden) {
  const WorkloadSpec &Spec = workloadByCode(GetParam());
  uint64_t Got = startupDigest(Spec);
  auto It = goldens().find(GetParam());
  ASSERT_NE(It, goldens().end()) << "no golden; start-up digest 0x"
                                 << std::hex << Got;
  EXPECT_EQ(Got, It->second.Startup) << std::hex << "got 0x" << Got;
}

TEST_P(ExecLedger, CollectionMatchesGolden) {
  const WorkloadSpec &Spec = workloadByCode(GetParam());
  size_t Records = 0;
  uint64_t Got = collectionDigest(Spec, Records);
  auto It = goldens().find(GetParam());
  ASSERT_NE(It, goldens().end()) << "no golden; collection digest 0x"
                                 << std::hex << Got << std::dec << ", "
                                 << Records << " records";
  EXPECT_EQ(Records, It->second.Records);
  EXPECT_EQ(Got, It->second.Collection) << std::hex << "got 0x" << Got;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, ExecLedger,
    ::testing::ValuesIn(jitml::testing::allWorkloadCodes()),
    [](const auto &Info) { return Info.param; });

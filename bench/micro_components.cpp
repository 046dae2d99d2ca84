//===- bench/micro_components.cpp -----------------------------------------===//
//
// google-benchmark micro set: the per-component costs that matter for the
// framework's overhead story — feature extraction (runs on every JIT
// compilation), archive encode/decode (the custom binary format),
// linear-model prediction (must stay far below a compilation: "it should
// not take longer to find out which transformations to apply to a method
// than to compile that method"), IL generation, plan optimization at every
// level, and both execution engines.
//
//===----------------------------------------------------------------------===//

#include "collect/Archive.h"
#include "features/FeatureExtractor.h"
#include "harness/Experiment.h"
#include "il/ILGenerator.h"
#include "svm/Trainer.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

using namespace jitml;

namespace {

const Program &benchProgram() {
  static const Program P = buildWorkload(workloadByCode("co"));
  return P;
}

uint32_t firstKernel(const Program &P) {
  for (uint32_t M = 0; M < P.numMethods(); ++M)
    if (P.methodAt(M).Name.find("Kernel") != std::string::npos)
      return M;
  return 0;
}

void BM_ILGeneration(benchmark::State &State) {
  const Program &P = benchProgram();
  uint32_t M = firstKernel(P);
  for (auto _ : State) {
    auto IL = generateIL(P, M);
    benchmark::DoNotOptimize(IL->numNodes());
  }
}
BENCHMARK(BM_ILGeneration);

void BM_FeatureExtraction(benchmark::State &State) {
  const Program &P = benchProgram();
  auto IL = generateIL(P, firstKernel(P));
  for (auto _ : State) {
    FeatureVector F = extractFeatures(*IL);
    benchmark::DoNotOptimize(F.hash());
  }
}
BENCHMARK(BM_FeatureExtraction);

void BM_OptimizePlan(benchmark::State &State) {
  const Program &P = benchProgram();
  uint32_t M = firstKernel(P);
  OptLevel Level = (OptLevel)State.range(0);
  double Cycles = 0;
  for (auto _ : State) {
    auto IL = generateIL(P, M);
    OptimizeResult R = optimize(*IL, planForLevel(Level),
                                BitSet64::allOne(NumTransformations));
    Cycles = R.CompileCycles;
    benchmark::DoNotOptimize(R.EntriesRun);
  }
  State.counters["sim_cycles"] = Cycles;
}
BENCHMARK(BM_OptimizePlan)->DenseRange(0, 4, 1);

void BM_ArchiveRoundTrip(benchmark::State &State) {
  // A representative archive: 512 records over 64 signatures.
  StringInterner Dict;
  std::vector<CollectionRecord> Records;
  Rng R(99);
  for (unsigned I = 0; I < 512; ++I) {
    CollectionRecord Rec;
    char Name[32];
    std::snprintf(Name, sizeof(Name), "Class.method%u(int)int", I % 64);
    Rec.SignatureId = Dict.intern(Name);
    Rec.Level = (OptLevel)(I % 3);
    Rec.ModifierBits = R.next() & ((1ull << NumTransformations) - 1);
    Rec.CompileCycles = (double)R.nextBelow(1u << 20);
    Rec.RunCycles = (double)R.nextBelow(1u << 24);
    Rec.Invocations = 1 + R.nextBelow(1000);
    for (unsigned F = 0; F < NumFeatures; ++F)
      Rec.Features.set(F, (uint32_t)R.nextBelow(40));
    Records.push_back(std::move(Rec));
  }
  size_t Bytes = 0;
  for (auto _ : State) {
    std::vector<uint8_t> Buf = encodeArchive(Dict, Records);
    Bytes = Buf.size();
    ArchiveData Out;
    bool Ok = decodeArchive(Buf, Out);
    benchmark::DoNotOptimize(Ok);
  }
  State.counters["archive_bytes"] = (double)Bytes;
  State.counters["bytes_per_record"] = (double)Bytes / 512.0;
}
BENCHMARK(BM_ArchiveRoundTrip);

void BM_LinearPredict(benchmark::State &State) {
  // p x L sized like the paper's models: 71 features, L classes.
  unsigned L = (unsigned)State.range(0);
  std::vector<NormalizedInstance> Data;
  Rng R(7);
  for (unsigned I = 0; I < 256; ++I) {
    NormalizedInstance N;
    N.Label = 1 + (int32_t)(I % L);
    N.Components.resize(NumFeatures);
    for (unsigned F = 0; F < NumFeatures; ++F)
      N.Components[F] = R.nextDouble();
    Data.push_back(std::move(N));
  }
  TrainOptions TO;
  TO.MaxIters = 5;
  LinearModel Model = trainCrammerSinger(Data, TO);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(Model.predict(Data[I % Data.size()].Components));
    ++I;
  }
}
BENCHMARK(BM_LinearPredict)->Arg(8)->Arg(64)->Arg(256);

void BM_InterpretKernel(benchmark::State &State) {
  const Program &P = benchProgram();
  uint32_t M = firstKernel(P);
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  for (auto _ : State) {
    VirtualMachine VM(P, Cfg);
    ExecResult R = VM.invoke(M, {Value::ofI(7)});
    benchmark::DoNotOptimize(R.Ret.I);
  }
}
BENCHMARK(BM_InterpretKernel);

void BM_ExecuteNativeKernel(benchmark::State &State) {
  const Program &P = benchProgram();
  uint32_t M = firstKernel(P);
  VirtualMachine::Config Cfg;
  Cfg.Control.Enabled = false;
  VirtualMachine VM(P, Cfg);
  VM.compileMethod(M, OptLevel::Hot);
  double Before = VM.stats().AppCycles;
  for (auto _ : State) {
    ExecResult R = VM.invoke(M, {Value::ofI(7)});
    benchmark::DoNotOptimize(R.Ret.I);
  }
  // Simulated cycles executed per host second: the executor's throughput.
  State.counters["app_cycles"] = benchmark::Counter(
      VM.stats().AppCycles - Before, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecuteNativeKernel);

void BM_FullStartupRun(benchmark::State &State) {
  const Program &P = benchProgram();
  for (auto _ : State) {
    RunResult R = runOnce(P, 1, nullptr, 42);
    benchmark::DoNotOptimize(R.WallCycles);
  }
}
BENCHMARK(BM_FullStartupRun);

} // namespace

BENCHMARK_MAIN();

//===- perfbench/Common.cpp - Inputs, references and the cycle ledger -----===//

#include "Bench.h"

#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace perfbench {

Workload::~Workload() = default;

void Outcome::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Notes.size() < 32)
    Notes.push_back("FAIL: " + What);
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  size_t Mid = V.size() / 2;
  std::nth_element(V.begin(), V.begin() + Mid, V.end());
  double Hi = V[Mid];
  if (V.size() % 2)
    return Hi;
  double Lo = *std::max_element(V.begin(), V.begin() + Mid);
  return (Lo + Hi) / 2.0;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  size_t Rank = (size_t)std::ceil(P * (double)V.size());
  size_t Idx = Rank == 0 ? 0 : std::min(Rank - 1, V.size() - 1);
  std::nth_element(V.begin(), V.begin() + Idx, V.end());
  return V[Idx];
}

double fastest(const std::vector<double> &V) {
  return V.empty() ? 0.0 : *std::min_element(V.begin(), V.end());
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / (double)V.size());
}

WorkloadSpec variantSpec(const WorkloadSpec &Spec, uint64_t Seed) {
  WorkloadSpec V = Spec;
  V.Seed = mix64(Spec.Seed ^ mix64(Seed ^ 0x7a11a47ull));
  return V;
}

std::vector<WorkloadSpec> trainingVariants(uint64_t Seed) {
  std::vector<WorkloadSpec> Out;
  for (const WorkloadSpec &S : trainingBenchmarks())
    Out.push_back(variantSpec(S, Seed));
  return Out;
}

std::vector<WorkloadSpec> suiteVariants(uint64_t Seed) {
  std::vector<WorkloadSpec> Out;
  for (const WorkloadSpec &S : specJvm98Suite())
    Out.push_back(variantSpec(S, Seed));
  for (const WorkloadSpec &S : daCapoSuite())
    Out.push_back(variantSpec(S, Seed));
  return Out;
}

CollectConfig collectConfigFor(uint64_t Seed) {
  CollectConfig C;
  C.Seed = mix64(Seed ^ 0xc011ec7ull);
  return C;
}

uint64_t subSeed(uint64_t Seed, unsigned K) {
  return K == 0 ? Seed : mix64(Seed + K * 0x9e3779b97f4a7c15ull);
}

std::vector<IntermediateDataSet> collectCanonical() {
  const std::vector<WorkloadSpec> &Training = trainingBenchmarks();
  std::vector<IntermediateDataSet> Per(Training.size());
  parallelFor(Training.size(), [&](size_t B) {
    Per[B] = collectFromWorkload(Training[B], CollectConfig());
  });
  return Per;
}

namespace {

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace

uint64_t modelDigest(const ModelSet &Set) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned L = 0; L < NumOptLevels; ++L) {
    const LevelModel &LM = Set.Levels[L];
    H = fnv1a(H, LM.Valid ? "valid" : "invalid");
    if (!LM.Valid)
      continue;
    H = fnv1a(H, LM.Scale.toText());
    H = fnv1a(H, LM.Labels.toText());
    H = fnv1a(H, LM.Model.toText());
  }
  return H;
}

Invocation interpretOnly(const Program &P) {
  VirtualMachine::Config Cfg;
  Cfg.EnableJit = false;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.run({Value::ofI(0)});
  Invocation Out;
  Out.Exceptional = R.Exceptional;
  Out.Ret = R.Exceptional ? 0 : R.Ret.I;
  Out.Stats = VM.stats();
  return Out;
}

Invocation baselineRun(const Program &P, uint64_t ClockSeed) {
  VirtualMachine::Config Cfg;
  Cfg.Clock.Seed = ClockSeed;
  VirtualMachine VM(P, Cfg);
  ExecResult R = VM.run({Value::ofI(0)});
  Invocation Out;
  Out.Exceptional = R.Exceptional;
  Out.Ret = R.Exceptional ? 0 : R.Ret.I;
  Out.Stats = VM.stats();
  return Out;
}

double peakRssMb() {
  if (std::FILE *F = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    double Kb = -1.0;
    while (Kb < 0.0 && std::fgets(Line, sizeof(Line), F))
      if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) != 1)
        Kb = -1.0;
    std::fclose(F);
    if (Kb > 0.0)
      return Kb / 1024.0;
  }
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0.0;
  return (double)U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

//===----------------------------------------------------------------------===//
// Simulated-cycle ledger
//===----------------------------------------------------------------------===//

void exactAdd(std::vector<double> &Partials, double X) {
  size_t I = 0;
  for (double Y : Partials) {
    if (std::fabs(X) < std::fabs(Y))
      std::swap(X, Y);
    double Hi = X + Y;
    double Lo = Y - (Hi - X);
    if (Lo != 0.0)
      Partials[I++] = Lo;
    X = Hi;
  }
  Partials.resize(I);
  Partials.push_back(X);
}

double exactValue(const std::vector<double> &Partials) {
  // Partials are non-overlapping and increasing in magnitude; summing
  // from the largest down, with the half-way correction of Python's
  // math.fsum, yields the correctly rounded total.
  if (Partials.empty())
    return 0.0;
  size_t N = Partials.size();
  double Hi = Partials[--N], Lo = 0.0;
  while (N > 0) {
    double X = Hi, Y = Partials[--N];
    Hi = X + Y;
    double Yr = Hi - X;
    Lo = Y - Yr;
    if (Lo != 0.0)
      break;
  }
  if (N > 0 && ((Lo < 0.0 && Partials[N - 1] < 0.0) ||
                (Lo > 0.0 && Partials[N - 1] > 0.0))) {
    double Y = Lo * 2.0;
    double X = Hi + Y;
    if (Y == X - Hi)
      Hi = X;
  }
  return Hi;
}

void LedgerListener::onMethodEnter(uint32_t M, const TscSample &T) {
  if (Next)
    Next->onMethodEnter(M, T);
}

void LedgerListener::onMethodExit(uint32_t M, const TscSample &T, bool Exc) {
  if (Next)
    Next->onMethodExit(M, T, Exc);
}

void LedgerListener::onCompile(const CompileEvent &E) {
  unsigned L = (unsigned)E.Level;
  LevelCycles[L] += E.CompileCycles;
  EventTotal += E.CompileCycles;
  exactAdd(ExactLevel[L], E.CompileCycles);
  exactAdd(ExactAll, E.CompileCycles);
  ++Events;
  if (Keep) {
    RecordedCompile R;
    R.Method = E.MethodIndex;
    R.Level = E.Level;
    R.ModifierBits = E.Modifier.raw();
    R.Features = E.Features;
    R.CompileCycles = E.CompileCycles;
    Compiles.push_back(R);
  }
  if (Next)
    Next->onCompile(E);
}

void checkLedger(const LedgerListener &L, const VirtualMachine::Stats &S,
                 Outcome &Out, const std::string &What) {
  // The per-level parts, combined without rounding error, must equal the
  // exact sum of every compile event: no event is lost or counted twice.
  std::vector<double> Parts;
  for (unsigned Lv = 0; Lv < NumOptLevels; ++Lv)
    for (double X : L.ExactLevel[Lv])
      exactAdd(Parts, X);
  Out.check(exactValue(Parts) == exactValue(L.ExactAll),
            What + ": per-level compile cycles do not sum to the events");
  // The events, added in the VM's order, reproduce its statistic exactly.
  Out.check(L.EventTotal == S.CompileCycles && L.Events == S.Compilations,
            What + ": compile events disagree with Stats.CompileCycles");
  Out.check(S.AppCycles + S.CompileCycles == S.totalCycles(),
            What + ": app + compile cycles differ from totalCycles()");
}

} // namespace perfbench

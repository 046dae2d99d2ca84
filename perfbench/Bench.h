//===- perfbench/Bench.h - Shared pieces of the repository benchmark ------===//
//
// The benchmark drives the jitml libraries only through their public
// functions and hooks. Each workload is a class with a set-up step (built
// once per repetition, timed into setup_s) and a timed body; the driver
// owns argument parsing, repetition and result printing (Driver.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "jitml/LearnedStrategy.h"
#include "jitml/Training.h"
#include "workloads/Workload.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using namespace jitml;

/// Injected wrong answers for the smoke mode: each names the oracle it
/// must trip.
enum class Inject : uint8_t {
  None,
  FlippedChecksum,   ///< learn: one start-up's checksum is flipped
  CorruptedModifier, ///< serve: one reply's modifier has a bit flipped
  PerturbedDigest,   ///< learn: one trained model's weight is perturbed
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  std::string TmpDir;   ///< private scratch directory (archives, socket)
  std::string TraceOut; ///< JSONL path for the traced run's spans
  /// Smoke sizes: tiny inputs, one iteration, for the oracle self-test.
  bool Tiny = false;
  /// Memory probe: full sizes, one repetition of the body (one learn
  /// iteration of each draw, without validation start-ups; one serve
  /// window).
  bool Probe = false;
  Inject Injected = Inject::None;
};

/// Outcome of one workload run: the operations its oracles checked and
/// the metrics it reports (name -> value, with units from the table in
/// Driver.cpp).
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;

  void check(bool Ok, const std::string &What);
};

/// Wall-clock seconds (steady_clock).
double nowSeconds();

/// Median of \p V (0 when empty); V is reordered.
double median(std::vector<double> V);
/// Nearest-rank percentile (P in [0,1]) of \p V; V is reordered.
double percentile(std::vector<double> V, double P);
double geomean(const std::vector<double> &V);
/// Smallest element of \p V (0 when empty).
double fastest(const std::vector<double> &V);

/// Program variant of \p Spec for benchmark seed \p Seed: same archetype
/// mix and code, different generated methods.
WorkloadSpec variantSpec(const WorkloadSpec &Spec, uint64_t Seed);
/// Training benchmarks (co, db, mp, mt, rt) as variants of \p Seed.
std::vector<WorkloadSpec> trainingVariants(uint64_t Seed);
/// All 8 SPEC-like then all 12 DaCapo-like programs, as variants.
std::vector<WorkloadSpec> suiteVariants(uint64_t Seed);

/// The default CollectConfig, seeded from the benchmark seed.
CollectConfig collectConfigFor(uint64_t Seed);

/// The K-th independent draw derived from the benchmark seed (K = 0 is the
/// seed itself). A workload that averages over several draws in one run
/// keeps its figures steady from one seed to the next.
uint64_t subSeed(uint64_t Seed, unsigned K);

/// Collections of the five canonical training programs under the default
/// CollectConfig: the data the model `serve` serves is trained from. They
/// do not depend on the benchmark seed, because one seed's
/// trained models shift every simulated figure of a run together (by up to
/// 10%); the seed varies the programs those models compile instead.
std::vector<IntermediateDataSet> collectCanonical();

/// Stable 64-bit digest of a trained model set: every level's validity,
/// scaling file, label table and weights, in their text forms.
uint64_t modelDigest(const ModelSet &Set);

/// Result of running a program's entry method once on a fresh VM.
struct Invocation {
  bool Exceptional = true;
  int64_t Ret = 0;
  VirtualMachine::Stats Stats;
};

/// Pure-interpreter reference run (EnableJit = false): the oracle's
/// answer key, independent of the compiler under test.
Invocation interpretOnly(const Program &P);
/// Out-of-the-box JIT (no hook): the simulated-cycle baseline.
Invocation baselineRun(const Program &P, uint64_t ClockSeed);

/// Peak resident set of this process in MiB.
double peakRssMb();

//===----------------------------------------------------------------------===//
// Spans (Trace.cpp)
//===----------------------------------------------------------------------===//

/// One recorded span. Times are seconds since the tracer's epoch.
struct Span {
  const char *Name = "";
  double Start = 0.0;
  double End = 0.0;
  int64_t Id = 0;
  int64_t Parent = -1; ///< -1 for a root span
  int64_t Group = -1;  ///< VM invocation / request id shared by its spans
  unsigned Thread = 0;
};

/// In-memory span recorder. Disabled (the untraced runs) it costs one
/// relaxed load per scope. Parents default to the innermost open span on
/// the same thread; work handed to another thread passes its parent
/// explicitly.
class Tracer {
public:
  static Tracer &get();

  void setEnabled(bool On) { Enabled.store(On, std::memory_order_relaxed); }
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  int64_t begin(const char *Name, int64_t Group, int64_t Parent);
  void end(int64_t Id);

  /// Innermost open span on this thread, or -1.
  static int64_t current();

  std::vector<Span> spans() const;
  void clear();

  /// Writes the first \p MaxSpans spans as JSONL (one object per line)
  /// to \p Path.
  bool writeJsonl(const std::string &Path, size_t MaxSpans) const;

private:
  std::atomic<bool> Enabled{false};
  std::atomic<int64_t> NextId{0};
  mutable std::mutex Mu;
  std::vector<Span> Done;
  std::map<int64_t, Span> Open;
};

/// RAII span; a no-op while tracing is disabled.
class Scope {
public:
  Scope(const char *Name, int64_t Group = -1, int64_t Parent = -2);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int64_t id() const { return Id; }

private:
  int64_t Id = -1;
};

/// Share of the root spans' total duration that no child span covers.
double uncoveredShare(const std::vector<Span> &Spans);
/// Renders the self-time table for stdout: per span name, the count, the
/// total duration and the self time (duration minus the union of the
/// children's intervals).
std::string selfTimeTable(const std::vector<Span> &Spans);

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

class Workload {
public:
  virtual ~Workload();
  /// Builds inputs, trains models and records request streams.
  virtual void setup(const Options &O) = 0;
  /// The measured body: runs for O.Seconds and fills \p Out. With
  /// O.Trace the body alternates traced and untraced iterations and
  /// reports per-layer metrics instead of end-to-end ones.
  virtual void run(const Options &O, Outcome &Out) = 0;
};

std::unique_ptr<Workload> makeLearn();
std::unique_ptr<Workload> makeServe();

//===----------------------------------------------------------------------===//
// Compile-stage replay (Replay.cpp), used by traced learn runs
//===----------------------------------------------------------------------===//

/// A compilation as the VM reported it through JitEventListener.
struct RecordedCompile {
  uint32_t Method = 0;
  OptLevel Level = OptLevel::Cold;
  uint64_t ModifierBits = 0;
  FeatureVector Features;
  double CompileCycles = 0.0;
};

/// Listener that keeps the simulated-cycle ledger of one VM from outside:
/// per-level compile cycles, the event-order total, and (optionally) the
/// compile events for the stage replay. Forwards to \p Next when set.
class LedgerListener : public JitEventListener {
public:
  explicit LedgerListener(JitEventListener *Next = nullptr, bool Keep = false)
      : Next(Next), Keep(Keep) {}
  void onMethodEnter(uint32_t M, const TscSample &T) override;
  void onMethodExit(uint32_t M, const TscSample &T, bool Exc) override;
  void onCompile(const CompileEvent &E) override;

  double LevelCycles[NumOptLevels] = {};
  /// Event-order running sum: the same additions VirtualMachine::Stats
  /// makes, so it must match Stats.CompileCycles bit for bit.
  double EventTotal = 0.0;
  /// Error-free (exact) sums of the events per level and overall.
  std::vector<double> ExactLevel[NumOptLevels];
  std::vector<double> ExactAll;
  uint64_t Events = 0;
  std::vector<RecordedCompile> Compiles;

private:
  JitEventListener *Next;
  bool Keep;
};

/// Adds \p X to an error-free partials list (Shewchuk's algorithm).
void exactAdd(std::vector<double> &Partials, double X);
/// Correctly rounded value of a partials list.
double exactValue(const std::vector<double> &Partials);

/// Checks the ledger of one finished VM: per-level parts sum exactly to
/// the event total, the event total equals Stats.CompileCycles bit for
/// bit, and app + compile cycles equal totalCycles(). One attempted
/// operation per check.
void checkLedger(const LedgerListener &L, const VirtualMachine::Stats &S,
                 Outcome &Out, const std::string &What);

/// Per-layer totals of a compile-stage replay.
struct ReplayTotals {
  double IlGenerateS = 0, FeaturesExtractS = 0, PredictS = 0, OptimizeS = 0,
         CodegenS = 0;
  uint64_t IlNodes = 0, EntriesRun = 0, EntriesSkipped = 0, Insts = 0;
  uint64_t MemoHits = 0, MemoMisses = 0, Compiles = 0;
};

/// Replays compile events stage by stage (ilgen -> features -> decide ->
/// optimize -> codegen) under spans, checking features, the decided
/// modifier and the compile cycles against what the VM recorded. \p
/// Decide maps (level, features) to the modifier; null keeps the recorded
/// modifier (collection runs).
void replayCompiles(const Program &P,
                    const std::vector<RecordedCompile> &Compiles,
                    LearnedStrategyProvider *Decide, int64_t Group,
                    ReplayTotals &T, Outcome &Out);

/// Stage-replay totals as per-layer metrics, divided by \p PerRuns.
void reportReplay(const ReplayTotals &T, double PerRuns,
                  std::map<std::string, double> &M);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H

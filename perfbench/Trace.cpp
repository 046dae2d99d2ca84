//===- perfbench/Trace.cpp - The benchmark's own spans --------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

thread_local std::vector<int64_t> OpenStack;

double epochSeconds() {
  static const double Epoch = nowSeconds();
  return nowSeconds() - Epoch;
}

unsigned threadOrdinal() {
  static std::atomic<unsigned> Next{0};
  thread_local unsigned Mine = Next.fetch_add(1);
  return Mine;
}

} // namespace

Tracer &Tracer::get() {
  static Tracer T;
  return T;
}

int64_t Tracer::begin(const char *Name, int64_t Group, int64_t Parent) {
  Span S;
  S.Name = Name;
  S.Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S.Parent = Parent;
  S.Group = Group;
  S.Thread = threadOrdinal();
  S.Start = epochSeconds();
  std::lock_guard<std::mutex> Lock(Mu);
  Open.emplace(S.Id, S);
  return S.Id;
}

void Tracer::end(int64_t Id) {
  double End = epochSeconds();
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Open.find(Id);
  if (It == Open.end())
    return;
  It->second.End = End;
  Done.push_back(It->second);
  Open.erase(It);
}

int64_t Tracer::current() {
  return OpenStack.empty() ? -1 : OpenStack.back();
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Done;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Done.clear();
  Open.clear();
}

bool Tracer::writeJsonl(const std::string &Path, size_t MaxSpans) const {
  std::vector<Span> All = spans();
  if (All.size() > MaxSpans)
    All.resize(MaxSpans);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const Span &S : All)
    std::fprintf(F,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"group\":%lld,\"thread\":%u,\"start_s\":%.9f,"
                 "\"end_s\":%.9f}\n",
                 S.Name, (long long)S.Id, (long long)S.Parent,
                 (long long)S.Group, S.Thread, S.Start, S.End);
  return std::fclose(F) == 0;
}

Scope::Scope(const char *Name, int64_t Group, int64_t Parent) {
  Tracer &T = Tracer::get();
  if (!T.enabled())
    return;
  Id = T.begin(Name, Group, Parent == -2 ? Tracer::current() : Parent);
  OpenStack.push_back(Id);
}

Scope::~Scope() {
  if (Id < 0)
    return;
  OpenStack.pop_back();
  Tracer::get().end(Id);
}

namespace {

/// Length of the union of [Start, End) intervals clipped to [Lo, Hi).
double coveredLength(std::vector<std::pair<double, double>> Iv, double Lo,
                     double Hi) {
  std::sort(Iv.begin(), Iv.end());
  double Covered = 0.0, CurLo = 0.0, CurHi = -1.0;
  for (auto [A, B] : Iv) {
    A = std::max(A, Lo);
    B = std::min(B, Hi);
    if (B <= A)
      continue;
    if (A > CurHi) {
      if (CurHi > CurLo)
        Covered += CurHi - CurLo;
      CurLo = A;
      CurHi = B;
    } else {
      CurHi = std::max(CurHi, B);
    }
  }
  if (CurHi > CurLo)
    Covered += CurHi - CurLo;
  return Covered;
}

using ChildMap =
    std::unordered_map<int64_t, std::vector<std::pair<double, double>>>;

ChildMap childIntervals(const std::vector<Span> &Spans) {
  ChildMap Children;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].emplace_back(S.Start, S.End);
  return Children;
}

double selfOf(const Span &S, const ChildMap &Children) {
  double Dur = S.End - S.Start;
  auto It = Children.find(S.Id);
  if (It == Children.end())
    return Dur;
  return Dur - coveredLength(It->second, S.Start, S.End);
}

} // namespace

double uncoveredShare(const std::vector<Span> &Spans) {
  ChildMap Children = childIntervals(Spans);
  double Total = 0.0, Uncovered = 0.0;
  for (const Span &S : Spans) {
    if (S.Parent >= 0)
      continue;
    Total += S.End - S.Start;
    Uncovered += selfOf(S, Children);
  }
  return Total > 0.0 ? Uncovered / Total : 0.0;
}

std::string selfTimeTable(const std::vector<Span> &Spans) {
  ChildMap Children = childIntervals(Spans);
  struct Row {
    uint64_t Count = 0;
    double Total = 0.0, Self = 0.0;
  };
  std::map<std::string, Row> Rows;
  for (const Span &S : Spans) {
    Row &R = Rows[S.Name];
    ++R.Count;
    R.Total += S.End - S.Start;
    R.Self += selfOf(S, Children);
  }
  std::string Out = "span                         count      total_s       self_s\n";
  char Buf[160];
  for (const auto &[Name, R] : Rows) {
    std::snprintf(Buf, sizeof(Buf), "%-26s %8llu %12.6f %12.6f\n",
                  Name.c_str(), (unsigned long long)R.Count, R.Total, R.Self);
    Out += Buf;
  }
  return Out;
}

} // namespace perfbench

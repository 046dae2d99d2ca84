//===- collect/CollectionListener.h - Profiling instrumentation -*- C++ -*-===//
///
/// \file
/// The data-collection instrumentation of section 4.2: per-invocation
/// enter/exit timing through the simulated rdtscp, with samples whose
/// enter and exit landed on different cores discarded (TSC drift), staged
/// entirely in memory — "data gathered in collection mode is stored in
/// carefully designed data structures in memory and is only transferred to
/// compact binary archives after the execution of the application
/// terminates".
///
//===----------------------------------------------------------------------===//

#ifndef JITML_COLLECT_COLLECTIONLISTENER_H
#define JITML_COLLECT_COLLECTIONLISTENER_H

#include "collect/CollectionRecord.h"
#include "runtime/VirtualMachine.h"
#include "support/StringInterner.h"

#include <functional>
#include <vector>

namespace jitml {

class CollectionListener : public JitEventListener {
public:
  explicit CollectionListener(const Program &P)
      : Prog(P), Open(P.numMethods()) {}

  void onMethodEnter(uint32_t MethodIndex, const TscSample &Now) override;
  void onMethodExit(uint32_t MethodIndex, const TscSample &Now,
                    bool Exceptional) override;
  void onCompile(const CompileEvent &Event) override;

  /// Closes all open records, in method order. Call once after the
  /// application finished.
  void finalize();

  /// Invoked whenever a record closes (a recompilation supersedes it or
  /// finalize() runs). The guided search feeds its credit assignment from
  /// this hook.
  void setRecordClosedHook(std::function<void(const CollectionRecord &)> H) {
    OnRecordClosed = std::move(H);
  }

  const std::vector<CollectionRecord> &records() const { return Records; }
  const StringInterner &dictionary() const { return Signatures; }
  uint64_t discardedSamples() const { return TotalDiscarded; }

private:
  struct OpenRecord {
    CollectionRecord Rec;
    /// Enter timestamps of in-flight activations (recursion nests).
    std::vector<TscSample> EnterStack;
    bool Active = false;
  };

  const Program &Prog;
  StringInterner Signatures;
  std::vector<OpenRecord> Open; ///< indexed by method
  std::vector<CollectionRecord> Records;
  std::function<void(const CollectionRecord &)> OnRecordClosed;
  uint64_t TotalDiscarded = 0;
};

} // namespace jitml

#endif // JITML_COLLECT_COLLECTIONLISTENER_H

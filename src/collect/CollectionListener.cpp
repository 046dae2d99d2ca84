//===- collect/CollectionListener.cpp -------------------------------------===//

#include "collect/CollectionListener.h"

using namespace jitml;

void CollectionListener::onMethodEnter(uint32_t MethodIndex,
                                       const TscSample &Now) {
  OpenRecord &O = Open[MethodIndex];
  if (!O.Active)
    return; // not compiled-for-collection yet
  O.EnterStack.push_back(Now);
}

void CollectionListener::onMethodExit(uint32_t MethodIndex,
                                      const TscSample &Now,
                                      bool Exceptional) {
  (void)Exceptional; // exceptional exits are timed like normal ones
  OpenRecord &O = Open[MethodIndex];
  if (!O.Active || O.EnterStack.empty())
    return;
  TscSample Enter = O.EnterStack.back();
  O.EnterStack.pop_back();
  // rdtscp gave us the core id with each read: "checking that the
  // identifier is the same in the enter and exit measurements ... and
  // discarding the measurement when they are not, avoids the type of
  // imprecision caused by TSC drift".
  if (Enter.CoreId != Now.CoreId || Now.Tsc < Enter.Tsc) {
    ++O.Rec.DiscardedSamples;
    ++TotalDiscarded;
    return;
  }
  O.Rec.RunCycles += (double)(Now.Tsc - Enter.Tsc);
  ++O.Rec.Invocations;
}

void CollectionListener::onCompile(const CompileEvent &Event) {
  OpenRecord &O = Open[Event.MethodIndex];
  // A new compilation closes the record of the previous one.
  if (O.Active && O.Rec.Invocations > 0) {
    Records.push_back(O.Rec);
    if (OnRecordClosed)
      OnRecordClosed(O.Rec);
  }
  O.Rec = CollectionRecord();
  O.Rec.SignatureId =
      Signatures.intern(Prog.signatureOf(Event.MethodIndex));
  O.Rec.Level = Event.Level;
  O.Rec.ModifierBits = Event.Modifier.raw();
  O.Rec.Features = Event.Features;
  O.Rec.CompileCycles = Event.CompileCycles;
  O.EnterStack.clear();
  O.Active = true;
}

void CollectionListener::finalize() {
  for (OpenRecord &O : Open) {
    if (O.Active && O.Rec.Invocations > 0) {
      Records.push_back(O.Rec);
      if (OnRecordClosed)
        OnRecordClosed(O.Rec);
    }
    O.Active = false;
  }
}

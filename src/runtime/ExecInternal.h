//===- runtime/ExecInternal.h - Engine entry points (private) --*- C++ -*-===//
///
/// \file
/// Internal interface between the VM facade, its two execution engines and
/// the compile pipeline. Not installed; include only from runtime/*.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef JITML_RUNTIME_EXECINTERNAL_H
#define JITML_RUNTIME_EXECINTERNAL_H

#include "runtime/VirtualMachine.h"

namespace jitml {

/// Executes \p MethodIndex by interpreting its bytecode.
ExecResult interpretMethod(VirtualMachine &VM, uint32_t MethodIndex,
                           std::vector<Value> Args, unsigned Depth);

/// Executes compiled native code.
ExecResult executeNative(VirtualMachine &VM, const NativeMethod &Code,
                         std::vector<Value> Args, unsigned Depth);

/// Records the "compile" trace event of a finished compilation that began
/// at \p StartUs and kept its thread busy for \p DurUs (the modifier
/// decision excluded). \p Worker is -1 on the interpreter thread.
void traceCompile(const CompileCompletion &C, int Worker, uint64_t StartUs,
                  uint64_t DurUs);

} // namespace jitml

#endif // JITML_RUNTIME_EXECINTERNAL_H

// Kernel emission for the native execution tier (src/native).
//
// Where translator.cpp renders blocks through user-editable CodeMapping
// templates (the paper's Fig. 15–17 code-generation surface), this emitter
// produces the *internal* translation unit the JIT tier compiles with
// `cc -O2 -shared -fPIC` and dlopens back into the process. The contract
// is much stricter than the template path: the emitted C must compute
// bit-identical doubles to blocks/pure_ops.hpp's applyPure for every input
// the tier marshals (see the byte-identical validation gate in
// native/tier.hpp), so
//
//   * only a whitelisted subset of the pure-block palette is emitted —
//     anything else throws CodegenError and the ring stays interpreted;
//   * every input that raises under the error contract in
//     blocks/pure_ops.hpp (division by zero, sqrt of a negative, item out
//     of range, …) sets an `err` out-parameter instead of producing a
//     value; the caller then re-runs the interpreter, which raises the
//     exact error;
//   * strict-evaluation semantics are preserved: the interpreter evaluates
//     every input before dispatching, so `and`/`or`/`if else` are emitted
//     as helper *calls* (C function arguments are strictly evaluated),
//     never as short-circuiting operators;
//   * numeric literals and captured-variable snapshots are emitted as C99
//     hexfloat literals, so the constant the kernel computes with has the
//     same bit pattern the interpreter's Value holds.
//
// Kernel shapes and their extern-"C" signatures:
//
//   Unary   double psnap_kernel(double x, int *err)
//           long   psnap_kernel_batch(const double *in, double *out, long n)
//           long   psnap_kernel_batch_omp(...)   (OpenMP variant, Listing 5)
//   Binary  double psnap_kernel2(double a, double b, int *err)
//   Fold    double psnap_kernel_fold(const double *a, long n, int *err)
//
// The batch entry returns the index of the first element whose evaluation
// erred, or -1 on clean completion. A Bool-returning body (a comparison
// ring) is emitted as 0.0/1.0 with `returnsBool` set so the caller boxes
// the result as a Boolean Value.
#pragma once

#include <cstdint>

#include "blocks/block.hpp"
#include "codegen/programs.hpp"

namespace psnap::codegen {

/// How the tier will call the kernel — decided by the call site
/// (parallelMap compiles unary rings, reduce combiners are binary,
/// mapReduce reducers fold a values list).
enum class KernelShape : uint8_t { Unary, Binary, Fold };

const char* kernelShapeName(KernelShape shape);
/// The extern-"C" symbol for a shape's scalar/fold entry.
const char* kernelSymbol(KernelShape shape);

struct NativeKernelSource {
  KernelShape shape = KernelShape::Unary;
  /// Does the body read its parameter? A constant-body unary kernel (the
  /// fig11 wordcount mapper reports 1 regardless of the word) can serve
  /// any input kind; a parameter-reading kernel only serves Numbers.
  bool paramUsed = false;
  /// The body is a predicate: box the 0.0/1.0 result as a Boolean.
  bool returnsBool = false;
  SourceSet sources;  ///< {"kernel.c": <translation unit>}
};

/// Emit the kernel translation unit for a pure reporter ring, or throw
/// CodegenError when the body steps outside the native subset. Purity is
/// the caller's responsibility (core::compileRing has already vetted it).
NativeKernelSource emitNativeKernel(const blocks::Ring& ring,
                                    KernelShape shape);

/// Structural content key: two rings with the same key emit the same
/// translation unit (same body shape, literals, formals, and captured
/// variable snapshot), so they can share one compiled kernel. Never
/// throws — ineligible rings still get a stable key, which the tier uses
/// to cache the rejection.
uint64_t kernelContentKey(const blocks::Ring& ring, KernelShape shape);

}  // namespace psnap::codegen

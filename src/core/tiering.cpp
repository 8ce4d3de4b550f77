#include "core/tiering.hpp"

#include <utility>
#include <vector>

#include "core/pure_eval.hpp"
#include "native/marshal.hpp"
#include "native/tier.hpp"
#include "workers/grain.hpp"

namespace psnap::core {

using blocks::BlockRegistry;
using blocks::ListPtr;
using blocks::RingPtr;
using blocks::Value;
using codegen::KernelShape;
using native::KernelState;
using native::RingKernel;
using native::TierConfig;
using native::TierManager;

namespace {

/// A parameter-reading kernel serves ValueKind::Number only: numeric text
/// coerces to the same double but must *display* as text, so handing it
/// to the kernel would pass the math and break byte-identical output.
bool marshalable(const Value& v, const RingKernel* kernel) {
  return !kernel->paramUsed || v.isNumber();
}

Value boxed(double raw, const RingKernel* kernel) {
  return native::boxResult(raw, kernel->returnsBool);
}

/// The Ready-state validation gate for one scalar call: native and
/// interpreter both run; agreement (same bits, or both erring) promotes,
/// any divergence downgrades — and the interpreter's outcome is always
/// the one surfaced, so a miscompiled kernel cannot leak a wrong value.
template <typename Interp, typename NativeCall>
Value validateScalar(RingKernel* kernel, const Interp& interp,
                     const NativeCall& nativeCall) {
  int err = 0;
  const double raw = nativeCall(&err);
  Value reference;
  try {
    reference = interp();
  } catch (...) {
    if (err) {
      TierManager::instance().promote(kernel);  // both paths erred: agree
    } else {
      TierManager::instance().downgrade(kernel);
    }
    throw;
  }
  if (err) {
    TierManager::instance().downgrade(kernel);  // native erred, interp not
    return reference;
  }
  if (native::byteIdentical(boxed(raw, kernel), reference)) {
    TierManager::instance().promote(kernel);
    return reference;
  }
  TierManager::instance().downgrade(kernel);
  return reference;
}

/// A state in which the installed kernel may serve a chunk (Ready ones
/// validate it first).
bool servesChunks(KernelState state) {
  return state == KernelState::Ready || state == KernelState::Trusted;
}

/// Count `calls` native calls covering `items` items.
void noteServed(RingKernel* kernel, uint64_t calls, uint64_t items) {
  kernel->nativeCalls.fetch_add(calls, std::memory_order_relaxed);
  TierManager::instance().noteNativeItems(items);
}

/// Run a chunk through the kernel's batch entry into `out`, all or
/// nothing: false when an element is unmarshalable or errs, or, from the
/// Ready state, when the interpreter disagrees on any element (which
/// downgrades). A Ready chunk that agrees everywhere promotes. The
/// caller writes nothing until this returns true, which keeps its
/// exact-retry invariant (every element written at most once).
template <typename Interp>
bool runChunk(RingKernel* kernel, KernelState state, const Interp& interp,
              const Value* items, size_t n, std::vector<double>& out) {
  if (!kernel->paramUsed && state == KernelState::Trusted) {
    // Constant body, already validated: one kernel call fills the chunk.
    int err = 0;
    const double raw = kernel->unary(0.0, &err);
    if (err) return false;
    out.assign(n, raw);
    return true;
  }
  std::vector<double> in;
  if (kernel->paramUsed) {
    if (!native::gatherNumbers(items, n, in)) return false;
  } else {
    in.assign(n, 0.0);  // constant body: the inputs are never read
  }
  out.resize(n);
  if (kernel->unaryBatch(in.data(), out.data(), static_cast<long>(n)) >=
      0) {
    return false;  // an element erred: the per-item loop raises it
  }
  if (state != KernelState::Ready) return true;
  for (size_t i = 0; i < n; ++i) {
    Value reference;
    try {
      reference = interp(items[i]);
    } catch (...) {
      // Native said clean, interpreter raised: divergence.
      TierManager::instance().downgrade(kernel);
      return false;
    }
    if (!native::byteIdentical(boxed(out[i], kernel), reference)) {
      TierManager::instance().downgrade(kernel);
      return false;
    }
  }
  TierManager::instance().promote(kernel);
  return true;
}

}  // namespace

TieredUnary tieredUnary(const RingPtr& ring, const BlockRegistry& registry) {
  PureFn compiled = compileRing(ring, registry);
  auto interp = [compiled](const Value& v) { return compiled({v}); };
  // Snapshot the session's config here, on the building thread — calls
  // run on pool workers, where no TierScope is installed.
  const TierConfig cfg = native::tierConfig();
  if (!cfg.enabled) return {interp, {}, {}, {}};
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);

  auto fn = [interp, kernel, ring, cfg](const Value& v) -> Value {
    switch (kernel->currentState()) {
      case KernelState::Trusted: {
        if (!marshalable(v, kernel)) break;
        int err = 0;
        const double raw =
            kernel->unary(kernel->paramUsed ? v.asNumber() : 0.0, &err);
        if (err) break;  // interpreter raises the exact typed error
        noteServed(kernel, 1, 1);
        return boxed(raw, kernel);
      }
      case KernelState::Ready: {
        if (!marshalable(v, kernel)) break;
        return validateScalar(
            kernel, [&] { return interp(v); },
            [&](int* err) {
              return kernel->unary(kernel->paramUsed ? v.asNumber() : 0.0,
                                   err);
            });
      }
      case KernelState::Cold:
        TierManager::instance().recordCalls(kernel, ring, 1, cfg);
        break;
      default:
        break;  // Compiling/Downgraded: interpreter serves
    }
    return interp(v);
  };

  auto batch = [interp, kernel](Value* items, size_t n) -> bool {
    const KernelState state = kernel->currentState();
    if (!servesChunks(state)) return false;
    if (!kernel->paramUsed && state == KernelState::Trusted) {
      // Constant body, already validated: one kernel call, then fill
      // with one boxed value — no buffers at all.
      int err = 0;
      const double raw = kernel->unary(0.0, &err);
      if (err) return false;
      const Value v = boxed(raw, kernel);
      for (size_t i = 0; i < n; ++i) items[i] = v;
      noteServed(kernel, n, n);
      return true;
    }
    std::vector<double> out;
    if (!runChunk(kernel, state, interp, items, n, out)) return false;
    for (size_t i = 0; i < n; ++i) items[i] = boxed(out[i], kernel);
    noteServed(kernel, n, n);
    return true;
  };

  auto numeric = [interp, kernel](const Value* items, size_t n,
                                  std::vector<double>& out) -> bool {
    const KernelState state = kernel->currentState();
    if (!servesChunks(state) || kernel->returnsBool) return false;
    std::vector<double> results;
    if (!runChunk(kernel, state, interp, items, n, results)) return false;
    out.swap(results);
    noteServed(kernel, n, n);
    return true;
  };

  // A parameter-reading kernel serves numbers only; any other item falls
  // back to the interpreter, whose cost is unknown.
  auto itemNs = [kernel](blocks::ItemSpan items) -> double {
    if (kernel->currentState() != KernelState::Trusted) return 0;
    if (kernel->paramUsed) {
      for (const Value& v : items) {
        if (!v.isNumber()) return 0;
      }
    }
    return workers::kMapItemNs;
  };

  return {std::move(fn), std::move(batch), std::move(numeric),
          std::move(itemNs)};
}

TieredReduce tieredReduce(const RingPtr& ring, const BlockRegistry& registry) {
  PureFn compiled = compileRing(ring, registry);
  auto interp = [compiled](const ListPtr& values) {
    return compiled({Value(values)});
  };
  const TierConfig cfg = native::tierConfig();
  if (!cfg.enabled) return {interp, {}, {}};
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Fold);

  auto fn = [interp, kernel, ring, cfg](const ListPtr& values) -> Value {
    const KernelState state = kernel->currentState();
    if (state == KernelState::Cold) {
      TierManager::instance().recordCalls(kernel, ring, 1, cfg);
      return interp(values);
    }
    if (!servesChunks(state)) return interp(values);
    std::vector<double> in;
    const blocks::ItemSpan items = values ? values->items() : blocks::ItemSpan();
    if (!native::gatherNumbers(items.data(), items.size(), in)) {
      return interp(values);
    }
    if (state == KernelState::Ready) {
      return validateScalar(
          kernel, [&] { return interp(values); },
          [&](int* err) {
            return kernel->fold(in.data(), static_cast<long>(in.size()),
                                err);
          });
    }
    int err = 0;
    const double raw =
        kernel->fold(in.data(), static_cast<long>(in.size()), &err);
    if (err) return interp(values);
    noteServed(kernel, 1, in.size());
    return boxed(raw, kernel);
  };

  // Only a Trusted kernel folds whole shards: the Ready state's
  // validation runs per call, through `fn`, on boxed lists.
  auto numeric = [kernel](const double* values, const uint32_t* bounds,
                          size_t runs, Value* out) -> bool {
    if (kernel->currentState() != KernelState::Trusted) return false;
    std::vector<double> raw(runs);
    for (size_t r = 0; r < runs; ++r) {
      int err = 0;
      raw[r] = kernel->fold(values + bounds[r],
                            static_cast<long>(bounds[r + 1] - bounds[r]), &err);
      if (err) return false;  // the run's reduce raises the typed error
    }
    for (size_t r = 0; r < runs; ++r) out[r] = boxed(raw[r], kernel);
    noteServed(kernel, runs, bounds[runs] - bounds[0]);
    return true;
  };

  auto trusted = [kernel] {
    return kernel->currentState() == KernelState::Trusted;
  };

  return {std::move(fn), std::move(numeric), std::move(trusted)};
}

mr::ReduceFn tieredListReduce(const RingPtr& ring,
                              const BlockRegistry& registry) {
  return tieredReduce(ring, registry).fn;
}

}  // namespace psnap::core

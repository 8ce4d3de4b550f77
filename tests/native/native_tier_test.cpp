// The native execution tier's promotion pipeline, end to end: hotness
// counting, synchronous/asynchronous compiles, the Ready validation gate,
// Trusted dispatch, and the byte-identical-output contract against the
// interpreter — including the paper's Fig. 11 word-count rings as golden
// cases and a property sweep over random pure arithmetic rings.
//
// Kernel dispatch records are process-lifetime and keyed by ring content,
// so every scenario uses a structurally unique ring (distinct literals)
// to get a fresh Cold record.
#include "core/tiering.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "blocks/builder.hpp"
#include "blocks/pure_ops.hpp"
#include "codegen/toolchain.hpp"
#include "core/parallel_blocks.hpp"
#include "core/pure_eval.hpp"
#include "native/loader.hpp"
#include "native/marshal.hpp"
#include "mapreduce/engine.hpp"
#include "native/tier.hpp"
#include "sched/thread_manager.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "tests/properties/generators.hpp"
#include "vm/process.hpp"
#include "workers/parallel.hpp"
#include "workers/stats.hpp"

namespace psnap::core {
namespace {

using namespace psnap::build;
using blocks::BlockRegistry;
using blocks::Environment;
using blocks::EnvPtr;
using blocks::List;
using blocks::ListPtr;
using blocks::Op;
using blocks::RingPtr;
using blocks::Value;
using codegen::KernelShape;
using codegen::Toolchain;
using native::KernelState;
using native::RingKernel;
using native::TierConfig;
using native::TierManager;
using native::TierScope;

/// Evaluate a reifyReporter block into a RingPtr via the interpreter (so
/// lexical capture happens exactly as in a real script).
RingPtr makeRing(blocks::BlockPtr reify, EnvPtr env = nullptr) {
  static vm::PrimitiveTable prims = vm::PrimitiveTable::standard();
  static vm::NullHost host;
  vm::Process p(&BlockRegistry::standard(), &prims, &host);
  p.startExpression(std::move(reify), env ? env : Environment::make());
  return p.runToCompletion().asRing();
}

/// Same-bits double comparison (the tier's correctness contract is
/// byte-identical output, not approximate equality).
bool sameBits(const Value& a, const Value& b) {
  return native::byteIdentical(a, b);
}

KernelState stateOf(const RingPtr& ring, KernelShape shape) {
  return TierManager::instance().lookup(*ring, shape)->currentState();
}

/// A low-threshold synchronous tier config: deterministic single-thread
/// promotion for tests (threshold crossings compile inline).
TierConfig syncConfig(uint64_t threshold = 2) {
  TierConfig cfg;
  cfg.hotThreshold = threshold;
  cfg.synchronousCompile = true;
  return cfg;
}

// --- golden: the paper's Fig. 11 word-count rings ---------------------------

TEST(NativeTier, GoldenFig11MapRingByteIdentical) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The word-count mapper: every item maps to the constant 1. A constant
  // body (paramUsed = false) is natively servable for ANY input kind —
  // the kernel never reads the marshalled parameter.
  RingPtr ring = makeRing(build::ring(In(1.0)));
  PureFn reference = compileRing(ring);

  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  const Value inputs[] = {Value(7.0), Value("the"), Value("quick"),
                          Value(true)};
  for (int round = 0; round < 4; ++round) {
    for (const Value& v : inputs) {
      Value expected = reference({v});
      Value got = tiered.fn(v);
      EXPECT_TRUE(sameBits(got, expected)) << got.display();
      EXPECT_EQ(got.display(), expected.display());
    }
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  RingKernel* kernel = TierManager::instance().lookup(*ring,
                                                      KernelShape::Unary);
  EXPECT_FALSE(kernel->paramUsed);
  EXPECT_GT(kernel->nativeCalls.load(), 0u);
}

TEST(NativeTier, GoldenFig11ReduceRingByteIdentical) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The word-count reducer: length of the per-key values list.
  RingPtr ring = makeRing(build::ring(lengthOf(empty())));
  PureFn reference = compileRing(ring);

  TierScope scope(syncConfig(1));
  auto reduce = tieredListReduce(ring);
  const std::vector<std::vector<double>> lists = {
      {1, 1, 1}, {1}, {}, {1, 1, 1, 1, 1, 1, 1}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& numbers : lists) {
      std::vector<Value> items(numbers.begin(), numbers.end());
      auto list = List::make(items);
      Value expected = reference({Value(list)});
      Value got = reduce(list);
      EXPECT_TRUE(sameBits(got, expected))
          << got.display() << " vs " << expected.display();
    }
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Trusted);
}

TEST(NativeTier, SumFoldReducerByteIdentical) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The classic combine-with-+ reducer: a real left fold in the kernel.
  RingPtr ring = makeRing(
      build::ring(combineUsing(empty(), build::ring(sum(empty(), empty())))));
  PureFn reference = compileRing(ring);

  TierScope scope(syncConfig(1));
  auto reduce = tieredListReduce(ring);
  Rng rng{2026};
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<Value> items;
    const int n = int(rng.below(9));
    for (int i = 0; i < n; ++i) {
      items.emplace_back(double(rng.between(-50, 50)) / 8.0);
    }
    auto list = List::make(items);
    Value expected = reference({Value(list)});
    Value got = reduce(list);
    EXPECT_TRUE(sameBits(got, expected))
        << got.display() << " vs " << expected.display();
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Trusted);
}

// --- promotion mechanics ----------------------------------------------------

TEST(NativeTier, PromotionWalksColdReadyTrusted) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 3.0), 19.0)));
  TierScope scope(syncConfig(3));
  TieredUnary tiered = tieredUnary(ring);

  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Cold);
  EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 22.0);
  EXPECT_EQ(tiered.fn(Value(2.0)).asNumber(), 25.0);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Cold);
  // Third call crosses the threshold; the synchronous compile installs
  // the kernel before the call returns (still served by the interpreter).
  EXPECT_EQ(tiered.fn(Value(3.0)).asNumber(), 28.0);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Ready);
  // Fourth call runs BOTH paths, bit-compares, and promotes.
  EXPECT_EQ(tiered.fn(Value(4.0)).asNumber(), 31.0);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  EXPECT_EQ(tiered.fn(Value(5.0)).asNumber(), 34.0);
}

TEST(NativeTier, TextInputFallsBackButStaysTrusted) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // A parameter-reading kernel serves Numbers only; numeric text coerces
  // to the same double but must display as text, so it always takes the
  // interpreter — with no downgrade (the kernel is still good).
  RingPtr ring = makeRing(build::ring(product(empty(), 23.0)));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  for (int i = 0; i < 4; ++i) tiered.fn(Value(double(i)));
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);

  EXPECT_EQ(tiered.fn(Value("3")).asNumber(), 69.0);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  EXPECT_EQ(tiered.fn(Value(3.0)).asNumber(), 69.0);
}

TEST(NativeTier, ErrorInputsRaiseTheInterpreterError) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // 10 / (x - 5): x = 5 divides by zero. The native kernel reports the
  // error through its out-parameter and the interpreter raises the exact
  // typed error — in every tier state.
  RingPtr ring = makeRing(
      build::ring(quotient(10.0, difference(empty(), 5.0))));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);

  std::string coldMessage;
  try {
    tiered.fn(Value(5.0));
    FAIL() << "division by zero did not throw";
  } catch (const Error& e) {
    coldMessage = e.what();
  }
  for (int i = 0; i < 4; ++i) EXPECT_EQ(tiered.fn(Value(7.0)).asNumber(), 5.0);
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  try {
    tiered.fn(Value(5.0));
    FAIL() << "division by zero did not throw once Trusted";
  } catch (const Error& e) {
    EXPECT_EQ(coldMessage, e.what());
  }
  // The error path is a per-call fallback, not a downgrade.
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  EXPECT_EQ(tiered.fn(Value(6.0)).asNumber(), 10.0);
}

TEST(NativeTier, ErringCallDuringValidationPromotes) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // If the FIRST post-install call is an error case, both paths err —
  // that is agreement, and the kernel still promotes.
  RingPtr ring = makeRing(
      build::ring(quotient(42.0, difference(empty(), 6.0))));
  TierScope scope(syncConfig(1));
  TieredUnary tiered = tieredUnary(ring);
  tiered.fn(Value(1.0));  // crosses threshold, installs
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Ready);
  EXPECT_THROW(tiered.fn(Value(6.0)), Error);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
}

TEST(NativeTier, UnsupportedRingDowngradesPermanentlyWithAccounting) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // join is a text op outside the native subset: the emitter rejects it,
  // the kernel downgrades permanently, and the downgrade is counted once
  // in the calling scope's substrate ledger.
  workers::SubstrateStats local;
  workers::StatsScope statsScope(local);
  RingPtr ring = makeRing(build::ring(join({In(empty()), In("-golden!")})));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);

  EXPECT_EQ(tiered.fn(Value("snap")).asText(), "snap-golden!");
  EXPECT_EQ(tiered.fn(Value("snap")).asText(), "snap-golden!");
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Downgraded);
  EXPECT_EQ(local.nativeDowngrades.load(), 1u);
  // Permanent, and counted exactly once.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tiered.fn(Value("x")).asText(), "x-golden!");
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Downgraded);
  EXPECT_EQ(local.nativeDowngrades.load(), 1u);
}

TEST(NativeTier, DisabledTierNeverCompiles) {
  RingPtr ring = makeRing(build::ring(sum(empty(), 7717.0)));
  TierConfig off = syncConfig(1);
  off.enabled = false;
  TierScope scope(off);
  TieredUnary tiered = tieredUnary(ring);
  EXPECT_FALSE(tiered.batch);  // no batch path when the tier is off
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(tiered.fn(Value(double(i))).asNumber(), i + 7717.0);
  }
  // No record was ever heated: looking it up now shows a Cold record.
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Cold);
}

// --- the batch path ---------------------------------------------------------

TEST(NativeTier, BatchServesWholeChunksAllOrNothing) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 2.0), 0.125)));
  PureFn reference = compileRing(ring);
  TierScope scope(syncConfig(4));
  TieredUnary tiered = tieredUnary(ring);
  ASSERT_TRUE(tiered.batch);

  std::vector<Value> chunk;
  for (int i = 0; i < 8; ++i) chunk.emplace_back(double(i));
  // Cold: the batch declines, writing nothing and recording nothing; the
  // caller's per-item calls count what they interpret: the fourth
  // crosses the threshold and compiles here.
  std::vector<Value> untouched = chunk;
  EXPECT_FALSE(tiered.batch(chunk.data(), chunk.size()));
  for (size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_TRUE(sameBits(chunk[i], untouched[i]));
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Cold);
  for (size_t i = 0; i < 4; ++i) tiered.fn(untouched[i]);
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Ready);
  // Ready: the batch validates the whole chunk against the interpreter,
  // promotes, and writes every element.
  EXPECT_TRUE(tiered.batch(chunk.data(), chunk.size()));
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  for (size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_TRUE(sameBits(chunk[i], reference({untouched[i]})));
  }
}

TEST(NativeTier, BatchDeclinesUnmarshalableChunksUntouched) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(difference(empty(), 0.25)));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  for (int i = 0; i < 4; ++i) tiered.fn(Value(double(i)));
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);

  // One text element poisons the chunk: all-or-nothing means NOTHING is
  // written and the caller's per-item loop handles every element.
  std::vector<Value> chunk = {Value(1.0), Value("2"), Value(3.0)};
  EXPECT_FALSE(tiered.batch(chunk.data(), chunk.size()));
  EXPECT_TRUE(chunk[0].isNumber());
  EXPECT_EQ(chunk[0].asNumber(), 1.0);
  EXPECT_EQ(chunk[1].asText(), "2");
  EXPECT_EQ(chunk[2].asNumber(), 3.0);
}

TEST(NativeTier, BatchDeclinesChunksWithErrorElements) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(quotient(64.0, empty())));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  for (int i = 1; i < 5; ++i) tiered.fn(Value(double(i)));
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);

  std::vector<Value> chunk = {Value(2.0), Value(0.0), Value(4.0)};
  EXPECT_FALSE(tiered.batch(chunk.data(), chunk.size()));
  EXPECT_EQ(chunk[1].asNumber(), 0.0);  // untouched
  // The scalar path raises the exact division error for the bad element.
  EXPECT_THROW(tiered.fn(Value(0.0)), Error);
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
}

TEST(NativeTier, LargeChunkWithAnErringElementRaisesTheInterpreterError) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // One 70,000-item chunk (above 64Ki) whose only bad element sits near
  // its end: the serial batch entry declines the whole chunk, and the
  // per-item loop raises the interpreter's exact error for that element.
  RingPtr ring = makeRing(build::ring(quotient(96.0, difference(empty(), 3.0))));
  PureFn reference = compileRing(ring);
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  for (int i = 4; i < 8; ++i) tiered.fn(Value(double(i)));
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);

  constexpr size_t kItems = 70'000;
  constexpr size_t kBad = 69'001;
  std::vector<Value> input;
  input.reserve(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    input.emplace_back(i == kBad ? 3.0 : double(i) + 4.0);
  }
  std::string expected;
  try {
    reference({Value(3.0)});
  } catch (const Error& e) {
    expected = e.what();
  }
  ASSERT_FALSE(expected.empty());

  workers::Parallel p(input, {.maxWorkers = 1, .chunkSize = kItems});
  p.map(tiered.fn, tiered.batch);
  try {
    p.data();  // rethrows the failed chunk's error with its own type
    FAIL() << "the erring element did not raise";
  } catch (const Error& e) {
    EXPECT_EQ(expected, e.what());
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
}

// --- the mapReduce numeric column -------------------------------------------

TEST(NativeTier, ColdBatchDeclineCountsEachInterpretedCallOnce) {
  // A declining chunk entry records nothing: the per-item fallback counts
  // each item it interprets, so a ring goes hot after hotThreshold
  // interpreted calls, not half of them. The threshold is out of reach,
  // so the record stays Cold and no compiler is needed.
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 4.0), 6007.0)));
  TierConfig cfg;
  cfg.hotThreshold = uint64_t(1) << 40;
  TierScope scope(cfg);
  TieredUnary tiered = tieredUnary(ring);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  std::vector<Value> items;
  for (int i = 0; i < 600; ++i) items.emplace_back(double(i));

  uint64_t before = kernel->calls.load();
  mr::Options options{.workers = 4};
  options.mapBatch = tiered.batch;
  mr::run(List::make(items), tiered.fn, mr::identityReduce(), options);
  EXPECT_EQ(kernel->calls.load() - before, 600u) << "mr::run";

  before = kernel->calls.load();
  workers::Parallel parallel(items, {.maxWorkers = 4});
  parallel.map(tiered.fn, tiered.batch);
  parallel.data();
  EXPECT_EQ(kernel->calls.load() - before, 600u) << "Parallel::map";
  EXPECT_EQ(kernel->currentState(), KernelState::Cold);
}

TEST(NativeTier, NumericEntryServesNumbersAllOrNothing) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(sum(product(empty(), 0.75), 1021.0)));
  PureFn reference = compileRing(ring);
  TierScope scope(syncConfig(4));
  TieredUnary tiered = tieredUnary(ring);
  ASSERT_TRUE(tiered.numeric);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);

  std::vector<Value> chunk;
  for (int i = 0; i < 8; ++i) chunk.emplace_back(double(i) - 2.5);
  std::vector<double> out;
  // Cold: declines, records nothing and leaves `out` unsized.
  EXPECT_FALSE(tiered.numeric(chunk.data(), chunk.size(), out));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(kernel->calls.load(), 0u);
  // Four interpreted calls install the kernel, not yet validated.
  for (int i = 0; i < 4; ++i) tiered.fn(chunk[size_t(i)]);
  ASSERT_EQ(kernel->currentState(), KernelState::Ready);
  // Ready: the whole chunk is validated against the interpreter, the
  // kernel promotes, and every result is the interpreter's bits.
  EXPECT_TRUE(tiered.numeric(chunk.data(), chunk.size(), out));
  EXPECT_EQ(kernel->currentState(), KernelState::Trusted);
  ASSERT_EQ(out.size(), chunk.size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    EXPECT_TRUE(sameBits(Value(out[i]), reference({chunk[i]})));
  }
  // Trusted: one unmarshalable element declines the chunk, `out` intact.
  const std::vector<double> kept = out;
  const std::vector<Value> mixed = {Value(1.0), Value("2"), Value(3.0)};
  EXPECT_FALSE(tiered.numeric(mixed.data(), mixed.size(), out));
  EXPECT_EQ(out, kept);
}

TEST(NativeTier, NumericEntryDeclinesPredicateKernels) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // A predicate's results box as booleans, so they have no column: the
  // numeric entry declines and the batch entry serves.
  RingPtr ring = makeRing(build::ring(lessThan(empty(), 4093.0)));
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  for (int i = 0; i < 4; ++i) tiered.fn(Value(double(i)));
  ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted);
  std::vector<Value> chunk = {Value(1.0), Value(5000.0)};
  std::vector<double> out;
  EXPECT_FALSE(tiered.numeric(chunk.data(), chunk.size(), out));
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(tiered.batch(chunk.data(), chunk.size()));
  EXPECT_TRUE(chunk[0].isBoolean() && chunk[0].asBoolean());
  EXPECT_TRUE(chunk[1].isBoolean() && !chunk[1].asBoolean());
}

TEST(NativeTier, NumericReduceFoldsOnlyForATrustedKernel) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  RingPtr ring = makeRing(build::ring(
      sum(combineUsing(empty(), build::ring(sum(empty(), empty()))), 313.0)));
  PureFn reference = compileRing(ring);
  TierScope scope(syncConfig(1));
  TieredReduce reduce = tieredReduce(ring);
  ASSERT_TRUE(reduce.numeric);
  // Three runs over one flat array: [1.5, 2], [], [-4, 0.25, 8].
  const double values[] = {1.5, 2, -4, 0.25, 8};
  const uint32_t bounds[] = {0, 2, 2, 5};
  Value out[3];
  // Cold and Ready decline, writing nothing; per-list calls heat the
  // kernel and validate it.
  EXPECT_FALSE(reduce.numeric(values, bounds, 3, out));
  reduce.fn(List::make({Value(1.0)}));
  ASSERT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Ready);
  EXPECT_FALSE(reduce.numeric(values, bounds, 3, out));
  EXPECT_TRUE(out[0].isNothing());
  reduce.fn(List::make({Value(1.0)}));
  ASSERT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Trusted);
  ASSERT_TRUE(reduce.numeric(values, bounds, 3, out));
  for (size_t r = 0; r < 3; ++r) {
    std::vector<Value> run(values + bounds[r], values + bounds[r + 1]);
    EXPECT_TRUE(sameBits(out[r], reference({Value(List::make(run))})))
        << "run " << r << ": " << out[r].display();
  }
}

/// Same kinds and bits all the way down (byteIdentical on the leaves it
/// covers, kind and display on the rest).
bool sameTree(const Value& a, const Value& b) {
  if (a.isList() != b.isList()) return false;
  if (a.isList()) {
    const auto x = a.asList()->items();
    const auto y = b.asList()->items();
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!sameTree(x[i], y[i])) return false;
    }
    return true;
  }
  if (a.isNumber() || a.isBoolean()) return sameBits(a, b);
  return a.kind() == b.kind() && a.display() == b.display();
}

/// A scheduler whose sessions run the tier under `cfg` (the scheduler
/// copies the process default when it is built).
struct TierSession {
  explicit TierSession(const TierConfig& cfg)
      : prims(core::fullPrimitiveTable()) {
    TierConfig& global = native::globalTierConfig();
    const TierConfig saved = global;
    global = cfg;
    tm = std::make_unique<sched::ThreadManager>(&BlockRegistry::standard(),
                                                &prims);
    global = saved;
  }

  Value run(const blocks::BlockPtr& program) {
    return tm->evaluate(program, Environment::make());
  }

  vm::PrimitiveTable prims;
  std::unique_ptr<sched::ThreadManager> tm;
};

TEST(NativeTierMapReduce, ColumnMatchesTheTierOffOutputThroughPromotion) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The map reads its item, so keys (the items) and values (the kernel's
  // doubles) differ; the reduce is a real left fold plus a constant.
  const auto mapBody = [] { return build::ring(sum(product(empty(), 0.5),
                                                   8111.0)); };
  const auto reduceBody = [] {
    return build::ring(sum(
        combineUsing(empty(), build::ring(sum(empty(), empty()))), 8209.0));
  };
  constexpr size_t kItems = 2000;
  auto input = List::make();
  for (size_t i = 0; i < kItems; ++i) {
    input->add(Value(double(i % 41) - 7.0));
  }
  const auto program = [&] {
    return mapReduce(mapBody(), reduceBody(), In(Value(input)));
  };
  TierConfig off;
  off.enabled = false;
  const Value expected = TierSession(off).run(program());
  ASSERT_EQ(expected.asList()->length(), 41u);

  // The scheduler's config never heats a ring by itself; the test moves
  // each kernel between jobs.
  TierConfig cold;
  cold.hotThreshold = uint64_t(1) << 40;
  cold.synchronousCompile = true;
  TierSession session(cold);
  RingPtr mapRing = makeRing(mapBody());
  RingPtr reduceRing = makeRing(reduceBody());

  // Job 1: both kernels Cold, the boxed path throughout.
  EXPECT_TRUE(sameTree(session.run(program()), expected)) << "Cold";
  ASSERT_EQ(stateOf(mapRing, KernelShape::Unary), KernelState::Cold);
  ASSERT_EQ(stateOf(reduceRing, KernelShape::Fold), KernelState::Cold);

  // Job 2: both installed but unproven. The map column validates each
  // slice against the interpreter; Ready reduces validate per run.
  {
    TierScope heat(syncConfig(1));
    tieredUnary(mapRing).fn(Value(1.0));
    tieredReduce(reduceRing).fn(List::make({Value(1.0)}));
  }
  ASSERT_EQ(stateOf(mapRing, KernelShape::Unary), KernelState::Ready);
  ASSERT_EQ(stateOf(reduceRing, KernelShape::Fold), KernelState::Ready);
  EXPECT_TRUE(sameTree(session.run(program()), expected)) << "Ready";
  ASSERT_EQ(stateOf(mapRing, KernelShape::Unary), KernelState::Trusted);
  ASSERT_EQ(stateOf(reduceRing, KernelShape::Fold), KernelState::Trusted);

  // Jobs 3 and 4: both Trusted. Every item is served twice natively, once
  // by the map column and once by the shard folds.
  for (int job = 0; job < 2; ++job) {
    const uint64_t items = TierManager::instance().stats().nativeItems;
    EXPECT_TRUE(sameTree(session.run(program()), expected)) << "Trusted";
    EXPECT_EQ(TierManager::instance().stats().nativeItems - items,
              2 * kItems);
  }
}

TEST(NativeTierMapReduce, PredicateMapStaysOnTheBatchPath) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  const auto mapBody = [] { return build::ring(lessThan(empty(), 8117.5)); };
  const auto reduceBody = [] { return build::ring(itemOf(1.0, empty())); };
  constexpr size_t kItems = 1200;
  auto input = List::make();
  for (size_t i = 0; i < kItems; ++i) {
    input->add(Value(double(i % 37) * 450.0));
  }
  const auto program = [&] {
    return mapReduce(mapBody(), reduceBody(), In(Value(input)));
  };
  TierConfig off;
  off.enabled = false;
  const Value expected = TierSession(off).run(program());

  TierConfig cold;
  cold.hotThreshold = uint64_t(1) << 40;
  TierSession session(cold);
  RingPtr mapRing = makeRing(mapBody());
  {
    TierScope heat(syncConfig(1));
    TieredUnary tiered = tieredUnary(mapRing);
    tiered.fn(Value(1.0));
    tiered.fn(Value(2.0));
  }
  RingKernel* kernel =
      TierManager::instance().lookup(*mapRing, KernelShape::Unary);
  ASSERT_EQ(kernel->currentState(), KernelState::Trusted);
  ASSERT_TRUE(kernel->returnsBool);
  const uint64_t served = kernel->nativeCalls.load();
  const Value got = session.run(program());
  EXPECT_TRUE(sameTree(got, expected));
  // The batch entry served every item, boxing booleans.
  EXPECT_EQ(kernel->nativeCalls.load() - served, kItems);
  EXPECT_TRUE(got.asList()->item(1).asList()->item(2).isBoolean());
}

// --- captured environment ---------------------------------------------------

TEST(NativeTier, CapturedVariablesBakeIntoTheKernel) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  auto env = Environment::make();
  env->declare("offset", Value(4071.0));
  RingPtr ring = makeRing(build::ring(sum(getVar("offset"), empty())), env);
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 4072.0);
  }
  ASSERT_EQ(kernel->currentState(), KernelState::Trusted);
  // Mutating the environment after the kernel is compiled must not reach
  // it — the capture is baked in as a constant, matching the interpreter
  // closure's structured-clone snapshot.
  env->set("offset", Value(0.0));
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 4072.0);
  }
  EXPECT_EQ(kernel->currentState(), KernelState::Trusted);
}

TEST(NativeTier, MutationBeforeCompileIsCaughtByTheValidationGate) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // The interpreter closure snapshots captures when the function is
  // BUILT; the emitter reads the ring's environment when the kernel goes
  // hot. A mutation in between makes the kernel compute the wrong
  // function — which the Ready validation gate must catch, downgrading
  // without ever surfacing a wrong value.
  auto env = Environment::make();
  env->declare("offset", Value(6133.0));
  RingPtr ring = makeRing(build::ring(sum(getVar("offset"), empty())), env);
  TierScope scope(syncConfig(2));
  TieredUnary tiered = tieredUnary(ring);
  RingKernel* kernel =
      TierManager::instance().lookup(*ring, KernelShape::Unary);
  env->set("offset", Value(0.0));  // between build and hot
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(tiered.fn(Value(1.0)).asNumber(), 6134.0);
  }
  EXPECT_EQ(kernel->currentState(), KernelState::Downgraded);
}

TEST(NativeTier, DifferentCaptureSnapshotsGetDifferentKernels) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // Two rings with identical structure but different captured values must
  // not share a dispatch record (the content key hashes the snapshot).
  auto envA = Environment::make();
  envA->declare("k", Value(1009.0));
  auto envB = Environment::make();
  envB->declare("k", Value(2027.0));
  RingPtr ringA = makeRing(build::ring(product(getVar("k"), empty())), envA);
  RingPtr ringB = makeRing(build::ring(product(getVar("k"), empty())), envB);
  TierScope scope(syncConfig(1));
  TieredUnary a = tieredUnary(ringA);
  TieredUnary b = tieredUnary(ringB);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(a.fn(Value(2.0)).asNumber(), 2018.0);
    EXPECT_EQ(b.fn(Value(2.0)).asNumber(), 4054.0);
  }
  EXPECT_NE(TierManager::instance().lookup(*ringA, KernelShape::Unary),
            TierManager::instance().lookup(*ringB, KernelShape::Unary));
}

// --- the error contract: native err paths mirror applyPure -----------------

/// One call's outcome: the value it reported, or the error it raised.
struct Outcome {
  Value value;
  ErrorClass errorClass = ErrorClass::None;
  std::string message;
};

Outcome outcomeOf(const std::function<Value()>& call) {
  Outcome out;
  try {
    out.value = call();
  } catch (const Error& e) {
    out.errorClass = classifyError(std::current_exception());
    out.message = e.what();
  }
  return out;
}

void expectSameOutcome(const Outcome& got, const Outcome& want,
                       const std::string& what) {
  EXPECT_EQ(std::string(errorClassName(got.errorClass)),
            errorClassName(want.errorClass))
      << what << ": " << got.message;
  EXPECT_EQ(got.message, want.message) << what;
  if (want.errorClass == ErrorClass::None) {
    EXPECT_TRUE(sameBits(got.value, want.value))
        << what << ": got " << got.value.display() << " want "
        << want.value.display();
  }
}

Value applyPure2(Op op, const Value& a, const Value& b) {
  const Value in[] = {a, b};
  return blocks::applyPure(op, in, 2);
}

TEST(NativeTier, ErrCallsMatchTheApplyPureContract) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  // Every C helper that sets `err`, driven to Trusted and then called at
  // boundary inputs: each call must report applyPure's bits or raise its
  // class and message, and none may cost the kernel its Trusted state.
  // The formal name is unique to this test, so every ring gets a fresh
  // dispatch record.
  TierScope scope(syncConfig(1));
  const double boundaries[] = {0.0, -0.0, -1.0,
                               std::numeric_limits<double>::denorm_min(),
                               std::numeric_limits<double>::quiet_NaN()};
  // Each helper's op, its fixed first operand, and a ring applying the op
  // to that operand and the boundary input.
  struct Case {
    const char* helper;
    Op op;
    Value first;
    blocks::BlockPtr body;
  };
  const Case cases[] = {
      {"psnap_div", Op::reportQuotient, Value(7.0),
       quotient(7.0, getVar("contract"))},
      {"psnap_mod", Op::reportModulus, Value(7.0),
       modulus(7.0, getVar("contract"))},
      {"psnap_sqrt", Op::reportMonadic, Value("sqrt"),
       monadic("sqrt", getVar("contract"))},
      {"psnap_ln", Op::reportMonadic, Value("ln"),
       monadic("ln", getVar("contract"))},
      {"psnap_log", Op::reportMonadic, Value("log"),
       monadic("log", getVar("contract"))},
  };
  for (const Case& c : cases) {
    RingPtr ring = makeRing(build::ring(c.body, {"contract"}));
    TieredUnary tiered = tieredUnary(ring);
    for (double x : {2.0, 3.0, 4.0}) tiered.fn(Value(x));
    ASSERT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted)
        << c.helper;
    for (double x : boundaries) {
      expectSameOutcome(outcomeOf([&] { return tiered.fn(Value(x)); }),
                        outcomeOf([&] {
                          return applyPure2(c.op, c.first, Value(x));
                        }),
                        std::string(c.helper) + " at " + std::to_string(x));
    }
    EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted)
        << c.helper << " downgraded";
    EXPECT_GT(TierManager::instance()
                  .lookup(*ring, KernelShape::Unary)
                  ->nativeCalls.load(),
              0u)
        << c.helper;
  }

  // psnap_item: `item (item 1 of L) of L` over the fold's list parameter,
  // so the list's first element is the index under test. The empty list
  // makes the inner `item 1` itself the erring call.
  RingPtr ring = makeRing(build::ring(
      itemOf(itemOf(1.0, getVar("contractList")), getVar("contractList")),
      {"contractList"}));
  auto reduce = tieredListReduce(ring);
  auto numbers = [](std::vector<double> items) {
    return List::make(std::vector<Value>(items.begin(), items.end()));
  };
  for (double i : {1.0, 2.0, 3.0}) reduce(numbers({i, 5.0, 6.0}));
  ASSERT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Trusted);
  std::vector<ListPtr> lists = {numbers({}), numbers({4.0, 5.0, 6.0}),
                                numbers({1.5, 5.0, 6.0})};
  for (double x : boundaries) lists.push_back(numbers({x, 5.0, 6.0}));
  for (const ListPtr& list : lists) {
    auto reference = [&] {
      const Value l(list);
      return applyPure2(Op::reportListItem,
                        applyPure2(Op::reportListItem, Value(1.0), l), l);
    };
    expectSameOutcome(outcomeOf([&] { return reduce(list); }),
                      outcomeOf(reference),
                      "psnap_item over " + Value(list).display());
  }
  EXPECT_EQ(stateOf(ring, KernelShape::Fold), KernelState::Trusted)
      << "psnap_item downgraded";
}

// --- property: random pure arithmetic rings are bit-exact -------------------

class NativeTierProperty : public ::testing::TestWithParam<int> {};

TEST_P(NativeTierProperty, RandomRingsAreByteIdenticalAcrossTiers) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  Rng rng{uint64_t(GetParam()) * 6361};
  TierScope scope(syncConfig(1));
  const double inputs[] = {-7.0, -1.0, -0.5, 0.0, 1.0, 3.0, 12.5};
  constexpr int kRings = 6;
  for (int r = 0; r < kRings; ++r) {
    auto expr = testgen::randomArithmetic(rng, 3);
    RingPtr ring = makeRing(build::ring(In(expr)));
    PureFn reference = compileRing(ring);
    TieredUnary tiered = tieredUnary(ring);
    // Every call — interpreted while Cold, dual-run while Ready, native
    // once Trusted — must produce the same bits as the reference.
    for (int round = 0; round < 3; ++round) {
      for (double x : inputs) {
        Value expected = reference({Value(x)});
        Value got = tiered.fn(Value(x));
        ASSERT_TRUE(sameBits(got, expected))
            << "seed=" << GetParam() << " ring=" << r << " x=" << x << "\n"
            << expr->display() << "\ngot " << got.display() << " want "
            << expected.display();
      }
    }
    // The generator stays inside the native subset, so every ring must
    // have made it to Trusted (a downgrade here means the emitter and
    // interpreter disagree on some arithmetic case).
    EXPECT_EQ(stateOf(ring, KernelShape::Unary), KernelState::Trusted)
        << expr->display();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NativeTierProperty, ::testing::Range(1, 6));

// --- satellite: toolchain content cache and directory ownership -------------

TEST(ToolchainCache, IdenticalRecompileHitsTheContentCache) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  Toolchain tc;
  codegen::SourceSet sources;
  sources["k.c"] = "double psnap_probe(double x) { return x + 1.0; }\n";
  const uint64_t before = Toolchain::cacheHits();
  auto first = tc.compileShared(sources, "k.so");
  EXPECT_FALSE(tc.lastCompileCached());
  auto second = tc.compileShared(sources, "k.so");
  EXPECT_TRUE(tc.lastCompileCached());
  EXPECT_EQ(first, second);
  EXPECT_EQ(Toolchain::cacheHits(), before + 1);
  // Changed bytes invalidate the stamp.
  sources["k.c"] = "double psnap_probe(double x) { return x + 2.0; }\n";
  tc.compileShared(sources, "k.so");
  EXPECT_FALSE(tc.lastCompileCached());
}

TEST(ToolchainCache, AutoCreatedDirectoryIsRemovedOnDestruction) {
  std::filesystem::path dir;
  {
    Toolchain tc;
    dir = tc.directory();
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(ToolchainCache, CallerOwnedDirectoryIsKept) {
  auto dir = std::filesystem::temp_directory_path() / "psnap-tc-keep-test";
  {
    Toolchain tc(dir);
    EXPECT_TRUE(std::filesystem::exists(dir));
  }
  EXPECT_TRUE(std::filesystem::exists(dir));
  std::filesystem::remove_all(dir);
}

// --- the loader -------------------------------------------------------------

TEST(SharedLibraryLoader, OpensAndResolvesSymbols) {
  if (!Toolchain::compilerAvailable()) GTEST_SKIP() << "no gcc";
  Toolchain tc;
  codegen::SourceSet sources;
  sources["probe.c"] =
      "double psnap_probe_fn(double x) { return x * 3.0; }\n";
  auto lib = tc.compileShared(sources, "probe.so");
  tc.keepDirectory();  // the library must outlive the toolchain's cleanup
  auto library = native::SharedLibrary::open(lib);
  auto fn = library.require<double (*)(double)>("psnap_probe_fn");
  EXPECT_EQ(fn(7.0), 21.0);
  EXPECT_EQ(library.symbol("no_such_symbol"), nullptr);
  EXPECT_THROW(library.require<double (*)(double)>("no_such_symbol"),
               CodegenError);
  std::filesystem::remove_all(tc.directory());
}

TEST(SharedLibraryLoader, MissingFileThrowsTyped) {
  EXPECT_THROW(native::SharedLibrary::open("/nonexistent/psnap-kernel.so"),
               CodegenError);
}

}  // namespace
}  // namespace psnap::core

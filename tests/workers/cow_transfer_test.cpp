// Snapshot transfer across the worker boundary: the COW value plane must
// behave exactly like the seed's eager deep copy — workers see the list
// as it was at construction time, and mutations on either side of the
// boundary never cross it — including while worker chunk tasks are
// actively reading the shared buffers (the tsan-relevant part: detach on
// the main thread races benignly with reads of the shared snapshot).
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "blocks/block.hpp"
#include "blocks/value.hpp"
#include "support/error.hpp"
#include "workers/parallel.hpp"

namespace psnap::workers {
namespace {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;

Value sumOfSublist(const Value& v) {
  double sum = 0;
  for (const Value& item : v.asList()->items()) sum += item.asNumber();
  return Value(sum);
}

TEST(CowTransfer, WorkersSeeTheConstructionTimeSnapshot) {
  // 120 sublists of [i, i, i]; expected per-item sum is 3i.
  auto source = List::make();
  for (size_t i = 0; i < 120; ++i) {
    source->add(Value(List::make({Value(i), Value(i), Value(i)})));
  }
  Parallel p(source, {.maxWorkers = 4});
  p.map(sumOfSublist);
  // Mutate every source sublist while the chunk tasks may still be
  // running: workers read the shared snapshot buffers concurrently with
  // the detach gates firing here on the main thread.
  for (size_t i = 1; i <= source->length(); ++i) {
    source->item(i).asList()->add(Value(1'000'000));
    source->item(i).asList()->replaceAt(1, Value(-1'000'000));
  }
  const std::vector<Value>& results = p.data();
  ASSERT_EQ(results.size(), 120u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].asNumber(), 3.0 * double(i));
  }
}

TEST(CowTransfer, ResultsStayIsolatedFromTheSourceAfterwards) {
  auto source = List::make();
  for (size_t i = 0; i < 16; ++i) {
    source->add(Value(List::make({Value(i)})));
  }
  Parallel p(source, {.maxWorkers = 2});
  // Identity map: worker outputs alias the snapshot's list nodes, the
  // strongest aliasing the boundary can produce.
  p.map([](const Value& v) { return v; });
  std::vector<Value> results = p.takeData();
  // Mutating the source never shows up in the results…
  for (size_t i = 1; i <= source->length(); ++i) {
    source->item(i).asList()->add(Value("tainted"));
  }
  for (const Value& r : results) {
    EXPECT_EQ(r.asList()->length(), 1u);
  }
  // …and mutating the results never shows up in the source.
  for (Value& r : results) r.asList()->add(Value("local"));
  for (size_t i = 1; i <= source->length(); ++i) {
    EXPECT_EQ(source->item(i).asList()->length(), 2u);  // number + tainted
    EXPECT_EQ(source->item(i).asList()->item(2).asText(), "tainted");
  }
}

TEST(CowTransfer, SharedTextTransfersByRefcount) {
  const std::string payload(4096, 'w');
  auto source = List::make();
  for (size_t i = 0; i < 64; ++i) source->add(Value(payload));
  Parallel p(source, {.maxWorkers = 4});
  p.map([](const Value& v) { return Value(v.textView().size()); });
  for (const Value& r : p.data()) {
    EXPECT_EQ(r.asNumber(), 4096.0);
  }
}

TEST(CowTransfer, NonTransferableInputsStillThrowPurityError) {
  auto expr = blocks::Block::make("reportIdentity", {blocks::Input::empty()});
  auto ring = blocks::Ring::reporter(expr);
  auto source = List::make({Value(1), Value(ring)});
  EXPECT_THROW(Parallel(source, {.maxWorkers = 2}), PurityError);
  auto cyclic = List::make({Value(1)});
  cyclic->add(Value(cyclic));
  auto holder = List::make({Value(cyclic)});
  EXPECT_THROW(Parallel(holder, {.maxWorkers = 2}), PurityError);
}

}  // namespace
}  // namespace psnap::workers

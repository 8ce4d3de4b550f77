#include "mapreduce/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>

#include "support/error.hpp"
#include "support/fault.hpp"
#include "support/strings.hpp"
#include "workers/grain.hpp"
#include "workers/stats.hpp"

namespace psnap::mr {

using blocks::List;
using blocks::ListPtr;
using blocks::Value;
using workers::TaskGroup;

namespace {

// An order class's sort key, built once per class head (its first pair)
// rather than once per pair. `hash` is the full 64-bit hash of the key's
// order class: keys the order treats as equivalent always hash equal,
// which is what lets a slice or shard find a key's class in a hash table
// and lets the shuffle shard by `hash % shards` (the ordering argument is
// in DESIGN.md, "Hash-grouped shuffle").
//
// A text key's rank is its own bytes, compared case-insensitively on the
// fly (strings::compareIgnoreCase orders exactly like toLower-then-< over
// unsigned bytes). Numeric keys never need a rank, so only booleans,
// lists and nothing render their display.
struct SortKey {
  // The head pair's key, read in place: an input item, pinned by the
  // job's input, or an explicit pair's key, pinned by its map result.
  const Value* key = nullptr;
  std::string shown;  // display(), for non-numeric non-text keys
  double num = 0;
  uint64_t hash = 0;
  bool numeric = false;
};

/// What the per-pair pass computes of a key: its number or its rank, and
/// its class hash. It owns nothing; `rank` views the key's text or a
/// display held by the caller.
struct Probe {
  std::string_view rank;
  double num = 0;
  uint64_t hash = 0;
  bool numeric = false;
};

std::string_view rankOf(const SortKey& k) {
  return k.key->isText() ? k.key->textView() : std::string_view(k.shown);
}

/// `key`'s probe. A non-numeric non-text key renders its display into
/// `shown`, which the probe's rank then views.
Probe probeOf(const Value& key, std::string& shown) {
  Probe p;
  p.numeric = key.numericValue(p.num);
  if (p.numeric) {
    // -0 and 0 are one key, and all NaNs are one class.
    p.hash = std::isnan(p.num) ? 0x7ff8000000000000ull
                               : std::hash<double>{}(p.num == 0 ? 0.0 : p.num);
  } else if (key.isText()) {
    p.rank = key.textView();
    p.hash = key.loweredHash();  // cached on the shared rep for long text
  } else {
    shown = key.display();
    p.rank = shown;
    p.hash = strings::hashLowered(shown);
  }
  return p;
}

Probe probeOf(const SortKey& k) {
  return {k.numeric ? std::string_view() : rankOf(k), k.num, k.hash,
          k.numeric};
}

/// True when `p` is in `head`'s order class, i.e. neither orders before
/// the other: the same number (all NaNs are one), or case-insensitively
/// equal ranks.
bool sameClass(const SortKey& head, const Probe& p) {
  if (head.hash != p.hash || head.numeric != p.numeric) return false;
  if (head.numeric) {
    return head.num == p.num || (std::isnan(head.num) && std::isnan(p.num));
  }
  return strings::equalsIgnoreCase(rankOf(head), p.rank);
}

/// The shuffle's key order, a strict weak ordering over every key: all
/// numeric keys first, by number (NaN after every other number), then
/// all other keys by case-insensitive text.
bool keyLess(const SortKey& a, const SortKey& b) {
  if (a.numeric != b.numeric) return a.numeric;
  if (a.numeric) {
    if (std::isnan(a.num) || std::isnan(b.num)) {
      return !std::isnan(a.num) && std::isnan(b.num);
    }
    return a.num < b.num;
  }
  return strings::compareIgnoreCase(rankOf(a), rankOf(b)) < 0;
}

/// `a.equals(b)` for two keys of the class headed by `head`. Where the
/// class is numeric or both keys are text, the class already decides it:
/// numbers of one class are equal unless NaN, and non-numeric texts of
/// one class are equal ignoring case, which is what Value::equals
/// compares.
bool sameKey(const SortKey& head, const Value& a, const Value& b) {
  if (head.numeric) return !std::isnan(head.num);
  if (a.isText() && b.isText()) return true;
  return a.equals(b);
}

/// One group of the shuffle: its key (the first pair's key), its value
/// (the values list, then the reduced value), and the head key of its
/// order class, by which shards merge.
struct Group {
  Value key;
  Value value;
  const SortKey* order = nullptr;
};

constexpr uint32_t kNone = UINT32_MAX;

/// Open addressing on a full 64-bit hash; each slot holds a dense id.
struct ClassTable {
  /// Empty, with room for `expected` ids at half load.
  void reset(size_t expected) {
    size_t capacity = 16;
    while (capacity < 2 * expected) capacity *= 2;
    slots.assign(capacity, kNone);
  }

  /// The slot holding the id for which `same(id)` holds, or else the
  /// empty slot where that id belongs.
  template <typename Same>
  uint32_t& find(uint64_t hash, const Same& same) {
    const size_t mask = slots.size() - 1;
    size_t slot = hash & mask;
    while (slots[slot] != kNone && !same(slots[slot])) {
      slot = (slot + 1) & mask;
    }
    return slots[slot];
  }

  /// Past half load with ids [0, count), grow and reinsert each id at
  /// `hashOf(id)`.
  template <typename HashOf>
  void fit(size_t count, const HashOf& hashOf) {
    if (2 * count <= slots.size()) return;
    reset(count);
    for (uint32_t id = 0; id < count; ++id) {
      find(hashOf(id), [](uint32_t) { return false; }) = id;
    }
  }

  std::vector<uint32_t> slots;
};

/// A hash of a key's exact representation, for the slice memo. Each
/// multiply is followed by a fold of its high half into the low bits the
/// table masks, so texts that share a prefix still spread.
uint64_t identityHash(const Value::Identity& id) {
  uint64_t h = (id.bits[0] ^ id.tag) * 0x9e3779b97f4a7c15ull;
  h ^= id.bits[1];
  h = (h ^ (h >> 32)) * 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 29);
}

/// One stage-1 slice's order classes, in first-appearance order: each
/// class's head key, member count and one-run flag, and its ids listed
/// by shard. In front of the class table sits a memo from each key
/// representation the slice has classed to its class id.
struct SliceClasses {
  void reset(size_t shards) {
    memo.reset(0);
    memoed.clear();
    table.reset(0);
    heads.clear();
    sizes.clear();
    oneRun.clear();
    byShard.assign(shards, {});
  }

  /// Count the pair key `key` into its class and return the class id.
  /// A key whose exact representation the slice has classed before is
  /// one memo probe. Any other key is probed and looked up in the class
  /// table; a key of a class the slice has not seen opens a class headed
  /// by itself, which takes over `shown` as its display. The key must
  /// stay pinned while the slice's classes live.
  uint32_t classify(const Value& key, std::string& shown) {
    const Value::Identity id = key.identity();
    uint32_t* memoSlot = nullptr;
    if (id.tag != 0) {
      uint32_t& slot = memo.find(
          identityHash(id), [&](uint32_t e) { return memoed[e].first == id; });
      if (slot != kNone) {
        const uint32_t c = memoed[slot].second;
        ++sizes[c];
        return c;
      }
      memoSlot = &slot;
    }
    const Probe p = probeOf(key, shown);
    uint32_t& slot =
        table.find(p.hash, [&](uint32_t c) { return sameClass(heads[c], p); });
    uint32_t c = slot;
    if (c != kNone) {
      ++sizes[c];
      // A non-numeric class stays one run only while every member is text.
      if (!p.numeric && !key.isText()) oneRun[c] = false;
    } else {
      c = uint32_t(heads.size());
      slot = c;
      SortKey head{&key, {}, p.num, p.hash, p.numeric};
      if (!p.numeric && !key.isText()) head.shown = std::move(shown);
      heads.push_back(std::move(head));
      sizes.push_back(1);
      oneRun.push_back(p.numeric ? !std::isnan(p.num) : key.isText());
      byShard[p.hash % byShard.size()].push_back(c);
      table.fit(heads.size(), [&](uint32_t h) { return heads[h].hash; });
    }
    if (memoSlot) {
      *memoSlot = uint32_t(memoed.size());
      memoed.emplace_back(id, c);
      memo.fit(memoed.size(),
               [&](uint32_t e) { return identityHash(memoed[e].first); });
    }
    return c;
  }

  ClassTable memo;  // identityHash → index into memoed
  std::vector<std::pair<Value::Identity, uint32_t>> memoed;  // → class id
  ClassTable table;
  std::vector<SortKey> heads;
  std::vector<uint32_t> sizes;
  /// Per class: sameKey holds between any two members, so the class is a
  /// single run. True for a numeric non-NaN class and for a class whose
  /// members are all text.
  std::vector<uint8_t> oneRun;
  std::vector<std::vector<uint32_t>> byShard;  // [shard] → class ids
};

/// Where a job's map results live: every slice's in its mapped slots,
/// every non-empty slice's in its column, or some of each.
enum class Results : uint8_t { Slots, Columns, Mixed };

/// One shard's runs in key order, laid out flat: run r is
/// members[bounds[r], bounds[r + 1]), and groups[r] holds its key and
/// order head (its value is set by the reduce). Under Results::Columns,
/// numbers[m] is member m's map result.
struct Runs {
  std::vector<Group> groups;
  std::vector<uint32_t> bounds{0};
  std::vector<uint32_t> members;
  std::vector<double> numbers;
  Results results = Results::Slots;
};

/// The shuffle over the input items and their flat map results: pair i
/// is read in place from items[i] and its map result (keyOf, valueOf),
/// and classOf[i] is its class in its slice's table. A map result is
/// mapped[i], or, when the numeric map entry served i's slice, a double
/// in that slice's column; a column pair is keyed by its item. Slot i of
/// every array is written by the one slice task covering i, and
/// slices[slice], binned[slice], columns[slice] and columnar[slice] by
/// that slice alone, so a slice that restarts from scratch rewrites all
/// of its state exactly.
struct Shuffle {
  Shuffle(blocks::ItemSpan input, size_t shards)
      : n(input.size()),
        shardCount(shards),
        items(input),
        mapped(n),
        classOf(n),
        slices(shards),
        binned(shards, std::vector<std::vector<uint32_t>>(shards)),
        columns(shards),
        columnar(shards, 0) {}

  /// Slice s covers [s * per(), min((s + 1) * per(), n)).
  size_t per() const { return (n + shardCount - 1) / shardCount; }

  /// An explicit [key, value] map result; any other result is keyed by
  /// its item.
  static bool isPair(const Value& result) {
    return result.isList() && result.asList()->length() == 2;
  }

  Results results() const {
    bool any = false;
    bool all = true;
    for (size_t t = 0; t < shardCount && t * per() < n; ++t) {
      any = any || columnar[t];
      all = all && columnar[t];
    }
    return !any ? Results::Slots : all ? Results::Columns : Results::Mixed;
  }
  /// Pair i's map result is in its slice's column. A column slice's
  /// mapped slots are never read: an attempt that declined before the
  /// entry served may have left values there.
  bool inColumn(size_t i, Results where) const {
    return where == Results::Columns ||
           (where == Results::Mixed && columnar[i / per()]);
  }
  const Value& keyOf(size_t i, Results where) const {
    return !inColumn(i, where) && isPair(mapped[i])
               ? mapped[i].asList()->items()[0]
               : items[i];
  }
  Value valueOf(size_t i, Results where) const {
    if (inColumn(i, where)) {
      const size_t t = i / per();
      return Value(columns[t][i - t * per()]);
    }
    return isPair(mapped[i]) ? mapped[i].asList()->items()[1] : mapped[i];
  }

  /// Forget everything `slice` has classed and binned.
  void resetSlice(size_t slice) {
    slices[slice].reset(shardCount);
    for (auto& bin : binned[slice]) bin.clear();
    columnar[slice] = false;
  }

  /// Class pair i's key in `slice`'s table and bin its index by shard.
  /// `shown` is the slice's scratch for a key's display.
  void bin(size_t slice, size_t i, std::string& shown) {
    const bool pair = !columnar[slice] && isPair(mapped[i]);
    const Value& key = pair ? mapped[i].asList()->items()[0] : items[i];
    if (pair && !key.isTransferable()) {
      throw Error(
          "mapReduce: explicit [key, value] pair has a non-transferable "
          "key of kind '" +
          std::string(blocks::valueKindName(key.kind())) +
          "'; keys must be cloneable (no rings)");
    }
    SliceClasses& classes = slices[slice];
    const uint32_t c = classes.classify(key, shown);
    classOf[i] = c;
    binned[slice][classes.heads[c].hash % shardCount].push_back(uint32_t(i));
  }

  /// One shard's runs in key order — exactly the groups a stable sort of
  /// the shard's pairs plus adjacent Value::equals grouping forms, at the
  /// cost of sorting only the distinct keys.
  Runs group(size_t shard) const {
    Runs runs;
    runs.results = results();
    const Results where = runs.results;
    // 1. Merge the slices' classes for this shard in slice order: a slice
    //    class joins the shard class whose head it matches, or heads a
    //    new one. Slice t's classes map through merged[firstOf[t] + c].
    std::vector<size_t> firstOf(slices.size() + 1, 0);
    size_t incoming = 0;
    for (size_t t = 0; t < slices.size(); ++t) {
      firstOf[t + 1] = firstOf[t] + slices[t].heads.size();
      incoming += slices[t].byShard[shard].size();
    }
    ClassTable table;
    table.reset(incoming);
    std::vector<const SortKey*> heads;  // per shard class
    std::vector<uint32_t> sizes;        // per shard class: members
    std::vector<uint8_t> single;        // per shard class: one run
    std::vector<uint32_t> merged(firstOf.back(), kNone);
    for (size_t t = 0; t < slices.size(); ++t) {
      for (uint32_t c : slices[t].byShard[shard]) {
        const SortKey& key = slices[t].heads[c];
        const Probe p = probeOf(key);
        uint32_t& slot = table.find(
            p.hash, [&](uint32_t m) { return sameClass(*heads[m], p); });
        if (slot == kNone) {
          slot = uint32_t(heads.size());
          heads.push_back(&key);
          sizes.push_back(0);
          single.push_back(true);
        }
        merged[firstOf[t] + c] = slot;
        sizes[slot] += slices[t].sizes[c];
        single[slot] &= slices[t].oneRun[c];
      }
    }
    // 2. Sort only the class heads.
    std::vector<uint32_t> order(heads.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return keyLess(*heads[a], *heads[b]);
    });
    // 3. Lay the members out flat, class by class in key order: the
    //    classes' sizes give each its range, and walking the slices in
    //    order fills every range in pair order. Under Columns each
    //    member's double is copied beside it.
    std::vector<uint32_t> cursor(heads.size());
    uint32_t total = 0;
    for (uint32_t c : order) {
      cursor[c] = total;
      total += sizes[c];
    }
    runs.members.resize(total);
    const bool column = where == Results::Columns;
    if (column) runs.numbers.resize(total);
    for (size_t t = 0; t < slices.size(); ++t) {
      const size_t base = t * per();
      for (uint32_t i : binned[t][shard]) {
        const uint32_t m = cursor[merged[firstOf[t] + classOf[i]]]++;
        runs.members[m] = i;
        if (column) runs.numbers[m] = columns[t][i - base];
      }
    }
    // 4. Split each class into runs of keys equal to the run's first key
    //    (a one-run class is a single run), reading keys only at run
    //    heads and in classes that are not one run.
    runs.groups.reserve(heads.size());
    uint32_t m = 0;
    for (uint32_t c : order) {
      const uint32_t end = m + sizes[c];
      while (m < end) {
        const Value& run = keyOf(runs.members[m], where);
        if (single[c]) {
          m = end;
        } else {
          do {
            ++m;
          } while (m < end &&
                   sameKey(*heads[c], run, keyOf(runs.members[m], where)));
        }
        runs.groups.push_back({run, Value(), heads[c]});
        runs.bounds.push_back(m);
      }
    }
    return runs;
  }

  /// Run r's values list, built from its range.
  ListPtr valuesOf(const Runs& runs, size_t r) const {
    std::vector<Value> values;
    values.reserve(runs.bounds[r + 1] - runs.bounds[r]);
    for (uint32_t m = runs.bounds[r]; m < runs.bounds[r + 1]; ++m) {
      if (runs.results == Results::Columns) {
        values.emplace_back(runs.numbers[m]);
      } else {
        values.push_back(valueOf(runs.members[m], runs.results));
      }
    }
    return List::make(std::move(values));
  }

  size_t n;
  size_t shardCount;
  blocks::ItemSpan items;      // the job's input, read-only for its life
  std::vector<Value> mapped;   // map results; pins explicit pairs' keys
  std::vector<uint32_t> classOf;
  std::vector<SliceClasses> slices;                        // [slice]
  std::vector<std::vector<std::vector<uint32_t>>> binned;  // [slice][shard]
  std::vector<std::vector<double>> columns;  // [slice]: numeric results
  std::vector<uint8_t> columnar;  // [slice]: its results are its column
};

/// Serial W-way merge of per-shard group lists, each in key order. A
/// class lives in one shard, so keys never tie across shards and the
/// strict merge reconstitutes the global order.
std::vector<Group> mergeShards(std::vector<std::vector<Group>>& shards) {
  if (shards.size() == 1) return std::move(shards[0]);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.size();
  std::vector<Group> out;
  out.reserve(total);
  std::vector<size_t> cursor(shards.size(), 0);
  while (out.size() < total) {
    size_t best = shards.size();
    for (size_t s = 0; s < shards.size(); ++s) {
      if (cursor[s] >= shards[s].size()) continue;
      if (best == shards.size() || keyLess(*shards[s][cursor[s]].order,
                                           *shards[best][cursor[best]].order)) {
        best = s;
      }
    }
    out.push_back(std::move(shards[best][cursor[best]++]));
  }
  return out;
}

/// The output list of [key, value] pairs.
ListPtr outputOf(std::vector<Group>& groups) {
  std::vector<Value> out;
  out.reserve(groups.size());
  for (Group& group : groups) {
    out.emplace_back(
        List::make({std::move(group.key), std::move(group.value)}));
  }
  return List::make(std::move(out));
}

}  // namespace

ReduceFn identityReduce() {
  return [](const ListPtr& values) { return Value(values); };
}

ListPtr run(const ListPtr& input, const MapFn& mapFn,
            const ReduceFn& reduceFn, const Options& options, Stats* stats) {
  Job job(input, mapFn, reduceFn, options);
  job.wait();
  if (job.failed()) std::rethrow_exception(job.error());
  if (stats) *stats = job.stats();
  return job.result();
}

// --- Job: the completion-chained pipeline -----------------------------------

struct Job::Pipeline {
  ListPtr input;  // a snapshot of the caller's list
  MapFn mapFn;
  ReduceFn reduceFn;
  Options options;
  workers::SubstrateStats* stats = nullptr;  // the constructing tenant's

  // Stage 1 output: the map results, each slice's key classes and the
  // pairs' shard bins.
  Shuffle shuffle{{}, 1};
  // Stage 2 output: per shard, its reduced groups in key order.
  std::vector<std::vector<Group>> shards;
};

Job::Job(ListPtr input, MapFn mapFn, ReduceFn reduceFn, Options options)
    : pipe_(std::make_unique<Pipeline>()) {
  Pipeline& p = *pipe_;
  p.mapFn = std::move(mapFn);
  p.reduceFn = std::move(reduceFn);
  p.options = std::move(options);
  p.stats = &workers::substrateStats();
  // One token spans the whole pipeline (map, shuffle and reduce share a
  // single wall-clock budget) and doubles as the cancel() handle, so it
  // exists even without a deadline or parent.
  token_ = p.options.deadlineSeconds > 0
               ? CancelToken::withDeadline(p.options.deadlineSeconds,
                                           p.options.cancel)
               : CancelToken::create(p.options.cancel);
  try {
    // The stages read a snapshot, so a caller that mutates its list while
    // the job runs never reaches the workers. O(1) for flat and mapped
    // lists; a ring or a future in the list settles a PurityError.
    if (!input) throw Error("mapReduce: null input list");
    p.input = input->snapshotClone();
  } catch (...) {
    settleError(std::current_exception());
    return;
  }
  const size_t n = p.input->length();
  stats_.inputItems = n;
  if (n == 0) {
    result_ = List::make();
    latch_.settle();
    return;
  }
  if (p.options.sequential) {
    runSequential();
    return;
  }
  const size_t width = p.options.workers == 0 ? 4 : p.options.workers;
  // A single shard keeps the chain's overhead off short lists without
  // changing the output.
  p.shuffle = Shuffle(p.input->items(), n < 256 ? 1 : width);
  p.shards.resize(p.shuffle.shardCount);
  launch(&Job::mapSlice, &Job::startStage2);
}

// Every path out of the chain settles the latch exactly once, as its last
// touch of the Job; ~Job's latch wait is therefore a full join.
Job::~Job() { latch_.wait(); }

void Job::onComplete(workers::CompletionLatch::Callback cb) {
  latch_.onSettle(std::move(cb));
}

void Job::cancel(const std::string& reason) { token_->cancel(reason); }

void Job::mapSlice(size_t slice, bool pooled) {
  Pipeline& p = *pipe_;
  Shuffle& s = p.shuffle;
  const blocks::ItemSpan items = s.items;
  const size_t begin = slice * s.per();
  const size_t end = std::min(begin + s.per(), s.n);
  // mapFn is pure and every slot this slice writes is its own, so a
  // retry restarts the slice exactly.
  s.resetSlice(slice);
  // Native numeric path: the kernel's doubles go straight into the
  // slice's column, and pairs are keyed by their items.
  bool column = false;
  if (pooled && p.options.mapNumeric && end > begin) {
    column = p.options.mapNumeric(items.data() + begin, end - begin,
                                  s.columns[slice]);
    s.columnar[slice] = column;
    if (column) fault::inject(fault::Point::TaskThrow);
  }
  // Native chunk path: copy the slice's items into its mapped slots and
  // transform them there (pairs stay keyed by the ORIGINAL items, which
  // p.input still holds). A false return writes nothing, and the loop
  // below maps every item itself.
  bool batched = false;
  if (pooled && !column && p.options.mapBatch && end > begin) {
    std::copy(items.begin() + begin, items.begin() + end,
              s.mapped.begin() + begin);
    batched = p.options.mapBatch(s.mapped.data() + begin, end - begin);
    // The slots now hold mapped values: a retry must copy afresh.
    if (batched) fault::inject(fault::Point::TaskThrow);
  }
  const bool mapped = column || batched;
  const bool inject = pooled && !mapped;
  std::string shown;
  for (size_t i = begin; i < end; ++i) {
    if (inject) fault::inject(fault::Point::TaskThrow);
    if ((i - begin) % 512 == 511) token_->checkpoint();
    if (!mapped) s.mapped[i] = p.mapFn(items[i]);
    s.bin(slice, i, shown);
  }
}

void Job::reduceShard(size_t shard, bool pooled) {
  Pipeline& p = *pipe_;
  // Everything below is local until the final move into p.shards, so a
  // retry restarts the shard exactly.
  if (pooled) fault::inject(fault::Point::TaskThrow);
  Runs runs = p.shuffle.group(shard);
  std::vector<Group>& groups = runs.groups;
  // Reduce each run in place — per-group reduction is independent of
  // how groups were formed, so fusing it here leaves the output bytes
  // unchanged. A shard of columns first offers all its runs, unboxed, to
  // the numeric reduce entry.
  bool folded = false;
  if (pooled && p.options.reduceNumeric &&
      runs.results == Results::Columns) {
    std::vector<Value> reduced(groups.size());
    folded = p.options.reduceNumeric(runs.numbers.data(), runs.bounds.data(),
                                     groups.size(), reduced.data());
    if (folded) {
      for (size_t g = 0; g < groups.size(); ++g) {
        groups[g].value = std::move(reduced[g]);
      }
      fault::inject(fault::Point::TaskThrow);
    }
  }
  for (size_t g = 0; !folded && g < groups.size(); ++g) {
    if (pooled) fault::inject(fault::Point::TaskThrow);
    if (g % 256 == 255) token_->checkpoint();
    groups[g].value = p.reduceFn(p.shuffle.valuesOf(runs, g));
  }
  p.shards[shard] = std::move(groups);
}

void Job::launch(void (Job::*body)(size_t, bool), void (Job::*next)()) {
  Pipeline& p = *pipe_;
  std::vector<TaskGroup::Task> tasks(
      p.shuffle.shardCount, [this, body](size_t index) {
        // A stage task restarts from scratch on a retry; a fault past the
        // last retry fails the group and reaches the degrade rung.
        workers::withRetries(pipe_->options.maxRetries, pipe_->stats,
                             [&] { (this->*body)(index, true); });
      });
  auto stage = std::make_shared<TaskGroup>(std::move(tasks), token_);
  // The thread that settles the stage holds it while the callback runs.
  submitStage(stage, [this, next, raw = stage.get()] {
    std::exception_ptr error = raw->error();
    if (!error && token_->cancelled()) {
      try {
        token_->checkpoint();
      } catch (...) {
        error = std::current_exception();
      }
    }
    if (error) {
      failOrDegrade(error);
    } else {
      (this->*next)();
    }
  });
}

void Job::startStage2() { launch(&Job::reduceShard, &Job::finish); }

void Job::runSequential() {
  Pipeline& p = *pipe_;
  try {
    p.shuffle = Shuffle(p.input->items(), 1);
    p.shards.assign(1, {});
    mapSlice(0, false);
    token_->checkpoint();
    reduceShard(0, false);
    token_->checkpoint();
  } catch (...) {
    settleError(std::current_exception());
    return;
  }
  finish();
}

void Job::finish() {
  Pipeline& p = *pipe_;
  uint64_t makespan = 0;
  for (const auto& shard : p.shards) {
    makespan = std::max<uint64_t>(makespan, shard.size());
  }
  std::vector<Group> groups = mergeShards(p.shards);
  stats_.mapMakespan = std::min(p.shuffle.per(), p.shuffle.n);
  stats_.distinctKeys = groups.size();
  stats_.reduceMakespan = makespan;
  result_ = outputOf(groups);
  latch_.settle();
}

void Job::submitStage(const std::shared_ptr<TaskGroup>& stage,
                      workers::CompletionLatch::Callback continuation) {
  const Pipeline& p = *pipe_;
  // A drained stage runs on this thread — the constructing thread for
  // stage 1, the one that finished stage 1 for stage 2. With degradation
  // forbidden, a refused stage settles typed (constructors do not throw;
  // jobs fail).
  try {
    switch (workers::startGroup(
        stage,
        workers::drainsInline(p.shuffle.n, p.options.itemCostNs,
                              p.shuffle.shardCount),
        p.options.allowDegrade)) {
      case workers::Started::Pooled:
        break;
      case workers::Started::Inline:
        inline_ = true;
        break;
      case workers::Started::Degraded:
        markDegraded();
        break;
    }
  } catch (const SubstrateError&) {
    settleError(std::current_exception());
    return;
  }
  // Registered once the stage is started, so a refused stage never
  // leaves a dangling continuation. If the stage is already finished (a
  // drained one always is), this fires the continuation right here.
  stage->onComplete(std::move(continuation));
}

// The one writer of Stats::degraded, so wasDegraded() and stats() agree.
// Writes are ordered by the stage chain and read once the job settles.
void Job::markDegraded() {
  if (stats_.degraded) return;
  stats_.degraded = true;
  pipe_->stats->bump(&workers::SubstrateStats::downgrades);
}

void Job::failOrDegrade(std::exception_ptr error) {
  Pipeline& p = *pipe_;
  // Only a *transient* substrate failure earns the sequential rerun.
  // Timeout/Cancelled must not (a rerun after a blown deadline only blows
  // it further) and user-script errors are deterministic.
  if (!p.options.allowDegrade ||
      classifyError(error) != ErrorClass::Substrate) {
    settleError(error);
    return;
  }
  // Rerun sequentially on whichever thread observed the failure, under
  // the *same* token — the deadline does not restart. The rerun's
  // retries/downgrades belong to the constructing tenant.
  workers::StatsScope scope(*p.stats);
  markDegraded();
  runSequential();
}

void Job::settleError(std::exception_ptr error) {
  errorPtr_ = error;
  failed_.store(true, std::memory_order_release);
  latch_.settle();
}

}  // namespace psnap::mr

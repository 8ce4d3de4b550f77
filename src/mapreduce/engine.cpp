#include "mapreduce/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
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
/// class's head key, member count, one-run flag and shard, and its ids
/// listed by shard. In front of the class table sits a memo from each
/// key representation the slice has classed to its class id.
struct SliceClasses {
  /// Empty, with a class table sized for `expected` classes (the tables
  /// start at 16 slots and double as they fill).
  void reset(size_t shards, size_t expected = 0) {
    memo.reset(0);
    memoed.clear();
    table.reset(expected);
    heads.clear();
    sizes.clear();
    oneRun.clear();
    shard.clear();
    byShard.assign(shards, {});
  }

  /// Count the pair key `key` into its class and return the class id.
  /// A key whose exact representation the slice has classed before is
  /// one memo probe; any other key goes to classifyNew and is memoized.
  /// The key must stay pinned while the slice's classes live.
  uint32_t classify(const Value& key, std::string& shown) {
    const Value::Identity id = key.identity();
    if (id.tag == 0) return classifyNew(key, shown);
    uint32_t& slot = memo.find(
        identityHash(id), [&](uint32_t e) { return memoed[e].first == id; });
    if (slot != kNone) {
      const uint32_t c = memoed[slot].second;
      ++sizes[c];
      return c;
    }
    const uint32_t c = classifyNew(key, shown);
    slot = uint32_t(memoed.size());
    memoed.emplace_back(id, c);
    memo.fit(memoed.size(),
             [&](uint32_t e) { return identityHash(memoed[e].first); });
    return c;
  }

  /// classify without the memo: `key` is probed and looked up in the
  /// class table. A key of a class the slice has not seen opens a class
  /// headed by itself, which takes over `shown` as its display and
  /// records its shard.
  uint32_t classifyNew(const Value& key, std::string& shown) {
    const Probe p = probeOf(key, shown);
    uint32_t& slot =
        table.find(p.hash, [&](uint32_t c) { return sameClass(heads[c], p); });
    uint32_t c = slot;
    if (c != kNone) {
      ++sizes[c];
      // A non-numeric class stays one run only while every member is text.
      if (!p.numeric && !key.isText()) oneRun[c] = false;
      return c;
    }
    c = uint32_t(heads.size());
    slot = c;
    SortKey head{&key, {}, p.num, p.hash, p.numeric};
    if (!p.numeric && !key.isText()) head.shown = std::move(shown);
    heads.push_back(std::move(head));
    sizes.push_back(1);
    oneRun.push_back(p.numeric ? !std::isnan(p.num) : key.isText());
    shard.push_back(uint32_t(p.hash % byShard.size()));
    byShard[shard.back()].push_back(c);
    table.fit(heads.size(), [&](uint32_t h) { return heads[h].hash; });
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
  std::vector<uint32_t> shard;                 // per class: hash % shards
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

/// A coded input's dictionary classes: every dictionary entry classed
/// once per job into one class table (a slice table's probe, sameClass
/// and heads, without the memo). Entry e's class is codeClass[e]; the
/// sizes count entries, not pairs. The first slice that classes by code
/// builds them under the lock, and they are read-only from then on, so a
/// job none of whose slices classes by code never builds them.
struct CodeClasses {
  /// The classes of `coding`'s entries, built on the first call.
  const CodeClasses& built(blocks::ItemSpan items,
                           const blocks::TextCoding& coding, size_t shards) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!done) {
      classes.reset(shards, coding.entries.size());
      codeClass.clear();
      codeClass.reserve(coding.entries.size());
      std::string shown;
      for (uint32_t entry : coding.entries) {
        codeClass.push_back(classes.classifyNew(items[entry], shown));
      }
      done = true;
    }
    return *this;
  }

  std::mutex mutex;
  bool done = false;
  SliceClasses classes;
  std::vector<uint32_t> codeClass;
};

/// A code that names no dictionary entry: the coded list is corrupt.
[[noreturn]] void throwPastDictionary(uint32_t code, size_t entries) {
  throw SubstrateError("mapReduce: corrupt coded list: code " +
                       std::to_string(code) + " is past its dictionary of " +
                       std::to_string(entries) + " entries");
}

/// The shuffle over the input items and their map results: pair i is
/// read in place from items[i] and its map result (keyOf, valueOf), and
/// classOf[i] is its class. A map result is held in its slice's mapped
/// slots, or, when the numeric map entry served the slice, as a double in
/// the slice's column; a column pair is keyed by its item.
///
/// A pair's class lives in its slice's table, or, for a dictionary-coded
/// input (blocks::TextCoding) in a slice whose pairs are all keyed by
/// their items, in the job's CodeClasses: such a slice classes pair i as
/// codeClass[codes[i]]. The shuffle classes by code only when the
/// dictionary has no more entries than a slice has pairs. One slice
/// classes the whole dictionary while the others wait, so a larger one
/// (mostly distinct keys) takes longer than the slices take to class
/// their own pairs in parallel.
///
/// Slot i of classOf is written by the one slice task covering i, and
/// slices[slice], mapped[slice], byCode[slice], codeSizes[slice],
/// binned[slice], columns[slice] and columnar[slice] by that slice alone,
/// so a slice that restarts from scratch rewrites all of its state
/// exactly.
struct Shuffle {
  Shuffle(blocks::ItemSpan input, size_t shards, blocks::TextCoding coded)
      : n(input.size()),
        shardCount(shards),
        sliceLength((n + shards - 1) / shards),
        items(input),
        coding(coded),
        dictionary(!coded.empty() && coded.entries.size() <= sliceLength
                       ? std::make_unique<CodeClasses>()
                       : nullptr),
        classOf(n),
        slices(shards),
        mapped(shards),
        byCode(shards, 0),
        codeSizes(shards),
        binned(shards, std::vector<std::vector<uint32_t>>(shards)),
        columns(shards),
        columnar(shards, 0) {}

  /// Slice s covers [sliceBegin(s), sliceEnd(s)): per() pairs from
  /// s * per(), clamped to n. With more shards than the input fills, the
  /// last slices start at or past n and are empty.
  size_t per() const { return sliceLength; }
  size_t sliceBegin(size_t slice) const { return std::min(slice * per(), n); }
  size_t sliceEnd(size_t slice) const {
    return std::min(sliceBegin(slice) + per(), n);
  }

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
  /// mapped slots are empty: it never keeps boxed results.
  bool inColumn(size_t i, Results where) const {
    return where == Results::Columns ||
           (where == Results::Mixed && columnar[i / per()]);
  }
  /// Pair i's boxed map result (not in a column).
  const Value& resultOf(size_t i) const {
    const size_t t = i / per();
    return mapped[t][i - t * per()];
  }
  const Value& keyOf(size_t i, Results where) const {
    return !inColumn(i, where) && isPair(resultOf(i))
               ? resultOf(i).asList()->items()[0]
               : items[i];
  }
  Value valueOf(size_t i, Results where) const {
    if (inColumn(i, where)) {
      const size_t t = i / per();
      return Value(columns[t][i - t * per()]);
    }
    const Value& result = resultOf(i);
    return isPair(result) ? result.asList()->items()[1] : result;
  }

  /// Forget everything `slice` has mapped, classed and binned.
  void resetSlice(size_t slice) {
    slices[slice] = {};
    mapped[slice].clear();
    byCode[slice] = false;
    codeSizes[slice].clear();
    for (auto& bin : binned[slice]) bin.clear();
    columnar[slice] = false;
  }

  /// Class every pair of `slice`, then bin each pair's index by its
  /// class's shard. A coded input's non-empty slice whose pairs are all
  /// keyed by their items reads each pair's class by its code, checking
  /// the code first; any other slice classes its keys in its own table,
  /// passing `token`'s checkpoint every 512 pairs. The coded loop takes
  /// no checkpoint: at a compare and a few array reads per pair, a whole
  /// slice of it runs in tens of microseconds.
  void classSlice(size_t slice, const CancelToken& token) {
    const size_t begin = sliceBegin(slice);
    const size_t end = sliceEnd(slice);
    const std::vector<Value>& results = mapped[slice];
    if (dictionary && begin < end &&
        std::none_of(results.begin(), results.end(), isPair)) {
      const CodeClasses& dict = dictionary->built(items, coding, shardCount);
      std::vector<uint32_t>& sizes = codeSizes[slice];
      sizes.assign(dict.classes.heads.size(), 0);
      const uint32_t* codes = coding.codes.data();
      const size_t entries = dict.codeClass.size();
      for (size_t i = begin; i < end; ++i) {
        if (codes[i] >= entries) throwPastDictionary(codes[i], entries);
        const uint32_t c = dict.codeClass[codes[i]];
        classOf[i] = c;
        ++sizes[c];
      }
      byCode[slice] = true;
      binSlice(slice, dict.classes.shard, sizes);
      return;
    }
    SliceClasses& classes = slices[slice];
    classes.reset(shardCount);
    std::string shown;  // scratch for a key's display
    for (size_t i = begin; i < end; ++i) {
      if ((i - begin) % 512 == 511) token.checkpoint();
      const bool pair = !columnar[slice] && isPair(results[i - begin]);
      const Value& key = pair ? results[i - begin].asList()->items()[0]
                              : items[i];
      if (pair && !key.isTransferable()) {
        throw Error(
            "mapReduce: explicit [key, value] pair has a non-transferable "
            "key of kind '" +
            std::string(blocks::valueKindName(key.kind())) +
            "'; keys must be cloneable (no rings)");
      }
      classOf[i] = classes.classify(key, shown);
    }
    binSlice(slice, classes.shard, classes.sizes);
  }

  /// Bin each pair of `slice` by its class's shard, given the classes'
  /// shards and the slice's member count per class.
  void binSlice(size_t slice, const std::vector<uint32_t>& shardOf,
                const std::vector<uint32_t>& sizes) {
    const size_t begin = sliceBegin(slice);
    const size_t end = sliceEnd(slice);
    std::vector<std::vector<uint32_t>>& bins = binned[slice];
    std::vector<size_t> counts(shardCount, 0);
    for (size_t c = 0; c < sizes.size(); ++c) counts[shardOf[c]] += sizes[c];
    for (size_t b = 0; b < shardCount; ++b) bins[b].reserve(counts[b]);
    for (size_t i = begin; i < end; ++i) {
      bins[shardOf[classOf[i]]].push_back(uint32_t(i));
    }
  }

  /// One shard's runs in key order — exactly the groups a stable sort of
  /// the shard's pairs plus adjacent Value::equals grouping forms, at the
  /// cost of sorting only the distinct keys.
  Runs group(size_t shard) const {
    Runs runs;
    runs.results = results();
    const Results where = runs.results;
    // 1. The shard's classes. Each source of classes joins in turn: the
    //    dictionary's, when some slice classed by code (its members
    //    summed over those slices), then each other slice's, in slice
    //    order. A class joins the shard class whose head it matches, or
    //    heads a new one. When every slice classed by code, the
    //    dictionary's classes are the only ones and already distinct, so
    //    nothing merges. Slice t's own classes map through
    //    merged[firstOf[t] + c], the dictionary's through mergedCode[c].
    std::vector<size_t> firstOf(slices.size() + 1, 0);
    size_t incoming = 0;
    bool anyCode = false;
    bool merging = false;
    for (size_t t = 0; t < slices.size(); ++t) {
      firstOf[t + 1] = firstOf[t] + slices[t].heads.size();
      if (byCode[t]) {
        anyCode = true;
      } else {
        merging = true;
        incoming += slices[t].byShard[shard].size();
      }
    }
    const SliceClasses* coded = anyCode ? &dictionary->classes : nullptr;
    if (anyCode) incoming += coded->byShard[shard].size();
    ClassTable table;
    if (merging) table.reset(incoming);
    std::vector<const SortKey*> heads;  // per shard class
    std::vector<uint32_t> sizes;        // per shard class: members
    std::vector<uint8_t> single;        // per shard class: one run
    heads.reserve(incoming);
    sizes.reserve(incoming);
    single.reserve(incoming);
    const auto join = [&](const SortKey& key, uint32_t size, bool oneRun) {
      uint32_t* slot = nullptr;
      if (merging) {
        const Probe p = probeOf(key);
        slot = &table.find(
            p.hash, [&](uint32_t m) { return sameClass(*heads[m], p); });
        if (*slot != kNone) {
          sizes[*slot] += size;
          single[*slot] &= oneRun;
          return *slot;
        }
        *slot = uint32_t(heads.size());
      }
      heads.push_back(&key);
      sizes.push_back(size);
      single.push_back(oneRun);
      return uint32_t(heads.size() - 1);
    };
    std::vector<uint32_t> mergedCode;
    if (anyCode) {
      mergedCode.assign(coded->heads.size(), kNone);
      for (uint32_t c : coded->byShard[shard]) {
        uint32_t size = 0;
        for (size_t t = 0; t < slices.size(); ++t) {
          if (byCode[t]) size += codeSizes[t][c];
        }
        mergedCode[c] = join(coded->heads[c], size, coded->oneRun[c]);
      }
    }
    std::vector<uint32_t> merged(firstOf.back(), kNone);
    for (size_t t = 0; t < slices.size(); ++t) {
      if (byCode[t]) continue;
      for (uint32_t c : slices[t].byShard[shard]) {
        merged[firstOf[t] + c] = join(slices[t].heads[c], slices[t].sizes[c],
                                      slices[t].oneRun[c]);
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
      const uint32_t* classes =
          byCode[t] ? mergedCode.data() : merged.data() + firstOf[t];
      for (uint32_t i : binned[t][shard]) {
        const uint32_t m = cursor[classes[classOf[i]]]++;
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
  size_t sliceLength;
  blocks::ItemSpan items;  // the job's input, read-only for its life
  blocks::TextCoding coding;  // the input's, if coded
  /// Null unless the input is coded with at most per() entries.
  std::unique_ptr<CodeClasses> dictionary;
  std::vector<uint32_t> classOf;
  std::vector<SliceClasses> slices;  // [slice]
  /// [slice]: its boxed map results, one per pair; pins explicit pairs'
  /// keys. Empty for a column slice.
  std::vector<std::vector<Value>> mapped;
  std::vector<uint8_t> byCode;  // [slice]: classed through codeClass
  /// [slice]: its members per dictionary class, when classed by code.
  std::vector<std::vector<uint32_t>> codeSizes;
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
  Shuffle shuffle{{}, 1, {}};
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
  // One token spans the whole pipeline (map, shuffle and reduce share the
  // parent's deadline, if any) and doubles as the cancel() handle, so it
  // exists even without a parent.
  token_ = CancelToken::create(p.options.cancel);
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
  const size_t width =
      p.options.workers == 0 ? workers::kDefaultWorkers : p.options.workers;
  // A single shard keeps the chain's overhead off short lists without
  // changing the output.
  p.shuffle = Shuffle(p.input->items(), n < 256 ? 1 : width,
                      p.input->coding());
  p.shards.resize(p.shuffle.shardCount);
  launch(&Job::mapSlice, &Job::startStage2);
}

// Every path out of the chain settles the latch exactly once, as its last
// touch of the Job; ~Job's latch wait is therefore a full join.
Job::~Job() { latch_.wait(); }

void Job::onComplete(CompletionLatch::Callback cb) {
  latch_.onSettle(std::move(cb));
}

void Job::cancel(const std::string& reason) { token_->cancel(reason); }

void Job::mapSlice(size_t slice, bool pooled) {
  Pipeline& p = *pipe_;
  Shuffle& s = p.shuffle;
  const blocks::ItemSpan items = s.items;
  const size_t begin = s.sliceBegin(slice);
  const size_t end = s.sliceEnd(slice);
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
  std::vector<Value>& results = s.mapped[slice];
  // Native chunk path: copy the slice's items into its mapped slots and
  // transform them there (pairs stay keyed by the ORIGINAL items, which
  // p.input still holds). A false return writes nothing, and the loop
  // below maps every item itself.
  bool batched = false;
  if (pooled && !column && p.options.mapBatch && end > begin) {
    results.assign(items.begin() + begin, items.begin() + end);
    batched = p.options.mapBatch(results.data(), end - begin);
    // The slots now hold mapped values: a retry must copy afresh.
    if (batched) fault::inject(fault::Point::TaskThrow);
  }
  if (!column && !batched) {
    results.resize(end - begin);
    for (size_t i = begin; i < end; ++i) {
      if (pooled) fault::inject(fault::Point::TaskThrow);
      if ((i - begin) % 512 == 511) token_->checkpoint();
      results[i - begin] = p.mapFn(items[i]);
    }
  }
  token_->checkpoint();
  s.classSlice(slice, *token_);
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
  // Stage 2 is built on whichever thread finished stage 1 (a pool
  // worker, usually), so the group charges the job's ledger explicitly.
  auto stage = std::make_shared<TaskGroup>(std::move(tasks), token_, p.stats);
  // The thread that settles the stage holds it while the callback runs.
  submitStage(stage, [this, next, raw = stage.get()] {
    if (std::exception_ptr error = raw->failure()) {
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
    p.shuffle = Shuffle(p.input->items(), 1, p.input->coding());
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
                      CompletionLatch::Callback continuation) {
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
  if (classifyError(error) == ErrorClass::Timeout) {
    pipe_->stats->bump(&workers::SubstrateStats::timeouts);
  }
  errorPtr_ = error;
  failed_.store(true, std::memory_order_release);
  latch_.settle();
}

}  // namespace psnap::mr

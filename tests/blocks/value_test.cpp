#include "blocks/value.hpp"

#include "blocks/block.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "persist/snapshot.hpp"
#include "support/error.hpp"

namespace psnap::blocks {
namespace {

TEST(Value, Kinds) {
  EXPECT_EQ(Value().kind(), ValueKind::Nothing);
  EXPECT_EQ(Value(1.5).kind(), ValueKind::Number);
  EXPECT_EQ(Value(true).kind(), ValueKind::Boolean);
  EXPECT_EQ(Value("hi").kind(), ValueKind::Text);
  EXPECT_EQ(Value(List::make()).kind(), ValueKind::ListRef);
}

TEST(Value, NumberCoercion) {
  EXPECT_EQ(Value(3.5).asNumber(), 3.5);
  EXPECT_EQ(Value("42").asNumber(), 42);
  EXPECT_EQ(Value(" -1.5 ").asNumber(), -1.5);
  EXPECT_EQ(Value(true).asNumber(), 1);
  EXPECT_EQ(Value(false).asNumber(), 0);
  EXPECT_EQ(Value("").asNumber(), 0);   // empty text is 0 in arithmetic
  EXPECT_EQ(Value().asNumber(), 0);
  EXPECT_THROW(Value("abc").asNumber(), TypeError);
  EXPECT_THROW(Value(List::make()).asNumber(), TypeError);
}

TEST(Value, IntegerCoercionRounds) {
  EXPECT_EQ(Value(2.6).asInteger(), 3);
  EXPECT_EQ(Value(-2.6).asInteger(), -3);
}

TEST(Value, TextCoercion) {
  EXPECT_EQ(Value(30.0).asText(), "30");
  EXPECT_EQ(Value(0.5).asText(), "0.5");
  EXPECT_EQ(Value(true).asText(), "true");
  EXPECT_EQ(Value().asText(), "");
  EXPECT_THROW(Value(List::make()).asText(), TypeError);
}

TEST(Value, BooleanCoercion) {
  EXPECT_TRUE(Value(true).asBoolean());
  EXPECT_TRUE(Value("TRUE").asBoolean());
  EXPECT_FALSE(Value("false").asBoolean());
  EXPECT_THROW(Value(1.0).asBoolean(), TypeError);
  EXPECT_THROW(Value("yes").asBoolean(), TypeError);
}

TEST(Value, SnapEqualsNumericText) {
  // Snap! compares numerically when both sides look numeric.
  EXPECT_TRUE(Value("30").equals(Value(30.0)));
  EXPECT_TRUE(Value("3.0").equals(Value(3.0)));
  EXPECT_FALSE(Value("30").equals(Value(31.0)));
}

TEST(Value, SnapEqualsCaseInsensitiveText) {
  EXPECT_TRUE(Value("Hello").equals(Value("hello")));
  EXPECT_FALSE(Value("hello").equals(Value("world")));
}

TEST(Value, EqualsMixedKinds) {
  EXPECT_FALSE(Value(true).equals(Value(1.0)));
  EXPECT_TRUE(Value().equals(Value()));
  EXPECT_FALSE(Value().equals(Value(0.0)));
}

TEST(Value, ListEqualityIsDeep) {
  auto a = List::make({Value(1), Value("two")});
  auto b = List::make({Value(1), Value("TWO")});
  EXPECT_TRUE(Value(a).equals(Value(b)));
  b->add(Value(3));
  EXPECT_FALSE(Value(a).equals(Value(b)));
}

TEST(List, OneIndexedAccess) {
  auto list = List::make({Value(10), Value(20), Value(30)});
  EXPECT_EQ(list->item(1).asNumber(), 10);
  EXPECT_EQ(list->item(3).asNumber(), 30);
  EXPECT_THROW(list->item(0), IndexError);
  EXPECT_THROW(list->item(4), IndexError);
}

TEST(List, InsertRemoveReplace) {
  auto list = List::make({Value(1), Value(3)});
  list->insertAt(2, Value(2));
  ASSERT_EQ(list->length(), 3u);
  EXPECT_EQ(list->item(2).asNumber(), 2);
  list->replaceAt(3, Value(99));
  EXPECT_EQ(list->item(3).asNumber(), 99);
  list->removeAt(1);
  EXPECT_EQ(list->item(1).asNumber(), 2);
  EXPECT_THROW(list->insertAt(5, Value(0)), IndexError);
  EXPECT_THROW(list->removeAt(3), IndexError);
}

TEST(List, ReferenceSemantics) {
  // Passing a list passes the object: mutation is visible to all holders.
  auto list = List::make({Value(1)});
  Value held(list);
  held.asList()->add(Value(2));
  EXPECT_EQ(list->length(), 2u);
}

TEST(List, ContainsUsesSnapEquality) {
  auto list = List::make({Value("Apple"), Value(7)});
  EXPECT_TRUE(list->contains(Value("apple")));
  EXPECT_TRUE(list->contains(Value("7")));
  EXPECT_FALSE(list->contains(Value(8)));
}

TEST(List, DeepCopyDetachesSublists) {
  auto inner = List::make({Value(1)});
  auto outer = List::make({Value(inner)});
  auto copy = outer->deepCopy();
  inner->add(Value(2));
  EXPECT_EQ(copy->item(1).asList()->length(), 1u);
}

TEST(List, Display) {
  auto list = List::make({Value(3), Value(7), Value(8)});
  EXPECT_EQ(list->display(), "[3, 7, 8]");
  auto nested = List::make({Value(list), Value("x")});
  EXPECT_EQ(nested->display(), "[[3, 7, 8], x]");
}

TEST(StructuredClone, CopiesDeeply) {
  auto inner = List::make({Value(1)});
  auto outer = List::make({Value(inner), Value("t")});
  Value clone = Value(outer).structuredClone();
  inner->add(Value(2));
  EXPECT_EQ(clone.asList()->item(1).asList()->length(), 1u);
}

TEST(StructuredClone, RejectsRings) {
  auto expr = Block::make("reportIdentity", {Input::empty()});
  auto ring = Ring::reporter(expr);
  EXPECT_FALSE(Value(ring).isTransferable());
  EXPECT_THROW(Value(ring).structuredClone(), PurityError);
  auto list = List::make({Value(ring)});
  EXPECT_FALSE(Value(list).isTransferable());
}

TEST(Ring, ConstructionRequiresBody) {
  EXPECT_THROW(Ring::reporter(nullptr), Error);
  EXPECT_THROW(Ring::command(nullptr), Error);
}

TEST(Ring, EqualityIsIdentity) {
  auto expr = Block::make("reportIdentity", {Input::empty()});
  auto r1 = Ring::reporter(expr);
  auto r2 = Ring::reporter(expr);
  EXPECT_TRUE(Value(r1).equals(Value(r1)));
  EXPECT_FALSE(Value(r1).equals(Value(r2)));
}

TEST(EmptySlots, OrdinalsArePreorder) {
  // (+ (_ ) (* (_) (_)))
  auto mul = Block::make("reportProduct", {Input::empty(), Input::empty()});
  auto add = Block::make("reportSum", {Input::empty(), Input(mul)});
  auto slots = collectEmptySlots(*add);
  ASSERT_EQ(slots.size(), 3u);
  auto ring = Ring::reporter(add);
  EXPECT_EQ(countEmptySlots(*ring), 3u);
  EXPECT_EQ(emptySlotOrdinal(*ring, slots[0]), 0u);
  EXPECT_EQ(emptySlotOrdinal(*ring, slots[2]), 2u);
  Input stray = Input::empty();
  EXPECT_THROW(emptySlotOrdinal(*ring, &stray), BlockError);
}

// --- identity(): a value's exact representation ----------------------------

TEST(ValueIdentity, EqualIdentitiesMeanEqualValuesOfOneKind) {
  const Value longText(std::string(40, 'x'));
  const Value copied = longText;  // shares the rep
  const std::vector<Value> values = {
      Value(0),        Value(-0.0),     Value(1),
      Value(1.5),      Value(true),     Value(false),
      Value(""),       Value("0"),      Value("1"),
      Value("a"),      Value("A"),      Value("word"),
      Value(std::string("word")),       Value(std::string_view("word")),
      longText,        copied,          Value(std::string(40, 'x')),
      Value(std::numeric_limits<double>::denorm_min())};
  for (const Value& a : values) {
    ASSERT_NE(a.identity().tag, 0) << a.display();
    for (const Value& b : values) {
      if (a.identity() == b.identity()) {
        EXPECT_EQ(a.kind(), b.kind()) << a.display() << " / " << b.display();
        EXPECT_TRUE(a.equals(b)) << a.display() << " / " << b.display();
      }
    }
  }
  EXPECT_EQ(copied.identity(), longText.identity());
  // 0 and false share their bits; 1 and true share none, but the least
  // subnormal does: the kind keeps them apart.
  EXPECT_NE(Value(0).identity(), Value(false).identity());
  EXPECT_NE(Value(std::numeric_limits<double>::denorm_min()).identity(),
            Value(true).identity());
}

TEST(ValueIdentity, EqualValuesOfDistinctRepresentationsDiffer) {
  EXPECT_TRUE(Value(0).equals(Value(-0.0)));
  EXPECT_NE(Value(0).identity(), Value(-0.0).identity());

  const double quiet = std::nan("");
  const double negated = -quiet;
  ASSERT_NE(std::memcmp(&quiet, &negated, sizeof(double)), 0);
  EXPECT_NE(Value(quiet).identity(), Value(negated).identity());

  EXPECT_TRUE(Value("a").equals(Value("A")));
  EXPECT_NE(Value("a").identity(), Value("A").identity());

  const std::string text = "a text too long to be stored inline";
  const Value first(text);
  const Value second(text);
  EXPECT_TRUE(first.equals(second));
  EXPECT_NE(first.identity(), second.identity());
}

TEST(ValueIdentity, OnlyNumbersBooleansAndTextsHaveOne) {
  EXPECT_EQ(Value().identity().tag, 0);
  EXPECT_EQ(Value(List::make({Value(1)})).identity().tag, 0);
  auto ring = Ring::reporter(Block::make("reportIdentity", {Input::empty()}));
  EXPECT_EQ(Value(ring).identity().tag, 0);
}

// A short text's identity is its zero-padded inline image, so it is the
// same however the text was built — including a slot read straight out
// of a mapped snapshot.
TEST(ValueIdentity, ShortTextIsOneIdentityOnEveryConstructionPath) {
  const Value::Identity fromString = Value(std::string("word")).identity();
  EXPECT_EQ(Value(std::string_view("word")).identity(), fromString);
  EXPECT_EQ(Value("word").identity(), fromString);
  // A longer text's bytes do not linger in a shorter one's padding.
  EXPECT_EQ(Value(std::string("wordy").substr(0, 4)).identity(), fromString);

  const auto dir = std::filesystem::temp_directory_path() /
                   ("psnap-identity-" +
                    std::to_string(::testing::UnitTest::GetInstance()
                                       ->random_seed()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "words.psnap").string();
  persist::saveList(path, List::make({Value(std::string_view("word"))}));
  {
    const ListPtr loaded = persist::loadList(path);
    ASSERT_TRUE(loaded->mappedBuffer());
    EXPECT_EQ(loaded->items()[0].identity(), fromString);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace psnap::blocks

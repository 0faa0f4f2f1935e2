// Runtime layer unit tests: values, conversions with XPath semantics,
// atomic comparison promotion, the register file and the node-id set.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "runtime/conversions.h"
#include "runtime/node_id_set.h"
#include "runtime/register_file.h"
#include "runtime/value.h"
#include "storage/document_loader.h"

namespace natix::runtime {
namespace {

struct StoreFixture {
  StoreFixture() {
    storage::NodeStore::Options options;
    options.buffer_pages = 16;
    auto created = storage::NodeStore::CreateTemp(options);
    NATIX_CHECK(created.ok());
    store = std::move(created.value());
    auto info =
        storage::LoadDocument(store.get(), "doc", "<a>12<b>34</b></a>");
    NATIX_CHECK(info.ok());
    root = info->root;
    nodes = storage::NodeAccessor(store.get());
    ctx.store = store.get();
    ctx.nodes = &nodes;
  }

  NodeRef RootRef() const { return NodeRef::Make(root, 0); }

  std::unique_ptr<storage::NodeStore> store;
  storage::NodeId root;
  storage::NodeAccessor nodes;
  EvalContext ctx;
};

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value::Boolean(true).AsBoolean(), true);
  EXPECT_EQ(Value::Number(3.5).AsNumber(), 3.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  NodeRef node = NodeRef::Make(storage::NodeId{3, 7}, 42);
  EXPECT_EQ(Value::Node(node).AsNode().order, 42u);
  EXPECT_EQ(Value::Node(node).AsNode().node_id().page, 3u);
}

TEST(ValueTest, DebugStrings) {
  EXPECT_EQ(Value().DebugString(), "null");
  EXPECT_EQ(Value::Boolean(false).DebugString(), "false");
  EXPECT_EQ(Value::Number(2).DebugString(), "2");
  EXPECT_EQ(Value::String("s").DebugString(), "\"s\"");
}

TEST(ConversionsTest, ToBoolean) {
  EvalContext ctx;
  EXPECT_FALSE(*ToBoolean(Value(), ctx));
  EXPECT_TRUE(*ToBoolean(Value::Number(1), ctx));
  EXPECT_FALSE(*ToBoolean(Value::Number(0), ctx));
  EXPECT_FALSE(*ToBoolean(Value::Number(std::nan("")), ctx));
  EXPECT_TRUE(*ToBoolean(Value::Number(-0.5), ctx));
  EXPECT_TRUE(*ToBoolean(Value::String("x"), ctx));
  EXPECT_FALSE(*ToBoolean(Value::String(""), ctx));
  // "false" is a non-empty string: true!
  EXPECT_TRUE(*ToBoolean(Value::String("false"), ctx));
}

TEST(ConversionsTest, ToNumber) {
  EvalContext ctx;
  EXPECT_TRUE(std::isnan(*ToNumber(Value(), ctx)));
  EXPECT_EQ(*ToNumber(Value::Boolean(true), ctx), 1);
  EXPECT_EQ(*ToNumber(Value::Boolean(false), ctx), 0);
  EXPECT_EQ(*ToNumber(Value::String(" 42 "), ctx), 42);
  EXPECT_TRUE(std::isnan(*ToNumber(Value::String("42x"), ctx)));
}

TEST(ConversionsTest, NodeConversionsUseStringValue) {
  StoreFixture f;
  Value node = Value::Node(f.RootRef());
  EXPECT_EQ(*ToStringValue(node, f.ctx), "1234");
  EXPECT_EQ(*ToNumber(node, f.ctx), 1234);
  EXPECT_TRUE(*ToBoolean(node, f.ctx));
}

TEST(ConversionsTest, SequenceStringIsFirstInDocOrder) {
  StoreFixture f;
  // Sequence holding (b, a) out of document order: string() must pick a
  // (the document node, order 0).
  storage::NodeRecord record;
  NATIX_CHECK(f.store->ReadNode(f.root, &record).ok());
  auto seq = std::make_shared<std::vector<Value>>();
  seq->push_back(Value::Node(NodeRef::Make(record.first_child, 5)));
  seq->push_back(Value::Node(f.RootRef()));
  Value sequence = Value::Sequence(seq);
  EXPECT_EQ(*ToStringValue(sequence, f.ctx), "1234");
  EXPECT_TRUE(*ToBoolean(sequence, f.ctx));
  auto empty = std::make_shared<std::vector<Value>>();
  EXPECT_EQ(*ToStringValue(Value::Sequence(empty), f.ctx), "");
  EXPECT_FALSE(*ToBoolean(Value::Sequence(empty), f.ctx));
}

TEST(ConversionsTest, CompareAtomicPromotion) {
  EvalContext ctx;
  auto eq = [&](const Value& a, const Value& b) {
    return *CompareAtomic(CompareOp::kEq, a, b, ctx);
  };
  // boolean dominates =.
  EXPECT_TRUE(eq(Value::Boolean(true), Value::String("anything")));
  EXPECT_TRUE(eq(Value::Boolean(false), Value::String("")));
  // number next.
  EXPECT_TRUE(eq(Value::Number(7), Value::String("7")));
  EXPECT_FALSE(eq(Value::Number(7), Value::String("seven")));
  // strings otherwise.
  EXPECT_TRUE(eq(Value::String("a"), Value::String("a")));
  // Relational always numeric.
  EXPECT_TRUE(*CompareAtomic(CompareOp::kLt, Value::String("9"),
                             Value::String("10"), ctx));
  EXPECT_FALSE(*CompareAtomic(CompareOp::kLt, Value::String("b"),
                              Value::String("a"), ctx));  // NaN < NaN
}

TEST(ConversionsTest, NaNComparisonRules) {
  EvalContext ctx;
  Value nan = Value::Number(std::nan(""));
  EXPECT_FALSE(*CompareAtomic(CompareOp::kEq, nan, nan, ctx));
  EXPECT_TRUE(*CompareAtomic(CompareOp::kNe, nan, nan, ctx));
  EXPECT_FALSE(*CompareAtomic(CompareOp::kLt, nan, Value::Number(1), ctx));
  EXPECT_FALSE(*CompareAtomic(CompareOp::kGe, nan, Value::Number(1), ctx));
}

TEST(RegisterFileTest, SaveRestoreRows) {
  RegisterFile registers(4);
  registers[0] = Value::Number(1);
  registers[2] = Value::String("x");
  std::vector<RegisterId> regs = {0, 2};
  Row row;
  registers.SaveRow(regs, &row);
  registers[0] = Value::Number(99);
  registers[2] = Value::String("clobbered");
  registers.RestoreRow(regs, row);
  EXPECT_EQ(registers[0].AsNumber(), 1);
  EXPECT_EQ(registers[2].AsString(), "x");
}

TEST(RegisterFileTest, ResizePreservesExisting) {
  RegisterFile registers(1);
  registers[0] = Value::Number(5);
  registers.Resize(8);
  EXPECT_EQ(registers[0].AsNumber(), 5);
  EXPECT_TRUE(registers[7].is_null());
}

TEST(NodeRefTest, IdentityAndOrder) {
  NodeRef a = NodeRef::Make(storage::NodeId{1, 2}, 10);
  NodeRef b = NodeRef::Make(storage::NodeId{1, 2}, 10);
  NodeRef c = NodeRef::Make(storage::NodeId{1, 3}, 11);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(NodeRef().valid());
}

uint64_t PackedId(uint32_t page, uint16_t slot) {
  return storage::NodeId{page, slot}.Pack();
}

TEST(NodeIdSetTest, DuplicateInsertIsRejected) {
  NodeIdSet set;
  EXPECT_EQ(set.capacity(), 0u);  // nothing allocated before an insert
  EXPECT_FALSE(set.Contains(PackedId(3, 7)));
  EXPECT_TRUE(set.Insert(PackedId(3, 7)));
  EXPECT_FALSE(set.Insert(PackedId(3, 7)));
  EXPECT_TRUE(set.Insert(PackedId(3, 8)));
  EXPECT_TRUE(set.Insert(0));  // page 0, slot 0 is an ordinary key
  EXPECT_FALSE(set.Insert(0));
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.Contains(PackedId(3, 7)));
  EXPECT_TRUE(set.Contains(0));
  EXPECT_FALSE(set.Contains(PackedId(7, 3)));
}

TEST(NodeIdSetTest, GrowsAcrossSeveralResizes) {
  NodeIdSet set;
  std::vector<size_t> capacities;
  for (uint32_t page = 0; page < 100; ++page) {
    for (uint16_t slot = 0; slot < 100; ++slot) {
      ASSERT_TRUE(set.Insert(PackedId(page, slot)));
      if (capacities.empty() || capacities.back() != set.capacity()) {
        capacities.push_back(set.capacity());
      }
    }
  }
  EXPECT_EQ(set.size(), 10000u);
  EXPECT_GE(capacities.size(), 8u);  // 16 slots doubled to 32768
  EXPECT_LE(2 * set.size(), set.capacity());
  for (uint32_t page = 0; page < 100; ++page) {
    for (uint16_t slot = 0; slot < 100; ++slot) {
      ASSERT_TRUE(set.Contains(PackedId(page, slot)));
      ASSERT_FALSE(set.Insert(PackedId(page, slot)));
    }
    ASSERT_FALSE(set.Contains(PackedId(page, 100)));
  }
  EXPECT_EQ(set.size(), 10000u);
}

// The empty-slot marker is still a legal key, kept apart from the table.
TEST(NodeIdSetTest, ReservedSentinelIsALegalKey) {
  NodeIdSet set;
  EXPECT_FALSE(set.Contains(NodeIdSet::kEmpty));
  EXPECT_TRUE(set.Insert(NodeIdSet::kEmpty));
  EXPECT_FALSE(set.Insert(NodeIdSet::kEmpty));
  EXPECT_TRUE(set.Contains(NodeIdSet::kEmpty));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.capacity(), 0u);
  EXPECT_FALSE(set.Contains(PackedId(1, 1)));
  for (uint16_t slot = 0; slot < 64; ++slot) set.Insert(PackedId(1, slot));
  EXPECT_EQ(set.size(), 65u);
  EXPECT_TRUE(set.Contains(NodeIdSet::kEmpty));
  set.clear();
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.Contains(NodeIdSet::kEmpty));
  EXPECT_FALSE(set.Contains(PackedId(1, 1)));
  EXPECT_TRUE(set.Insert(NodeIdSet::kEmpty));
}

// A nested plan clears its seen-set once per outer tuple: one large fill
// must not make every later small Open/clear cycle pay for the large
// table. Counted in slots swept, not in time.
TEST(NodeIdSetTest, ReuseAfterALargeFillStaysLinear) {
  NodeIdSet set;
  uint64_t inserted = 0;
  for (uint32_t i = 0; i < 65536; ++i) {
    ASSERT_TRUE(set.Insert(PackedId(i / 256, static_cast<uint16_t>(i))));
    ++inserted;
  }
  set.clear();
  EXPECT_TRUE(set.empty());
  const uint64_t swept_by_fill = set.slots_swept();
  // Growth re-inserts fewer than 4 slots per entry, a wipe at most 8.
  EXPECT_LE(swept_by_fill, 12 * inserted);

  constexpr uint64_t kCycles = 10000;
  constexpr uint16_t kPerCycle = 4;
  for (uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    for (uint16_t j = 0; j < kPerCycle; ++j) {
      ASSERT_TRUE(set.Insert(PackedId(static_cast<uint32_t>(cycle), j)));
    }
    ASSERT_TRUE(set.Contains(PackedId(static_cast<uint32_t>(cycle), 0)));
    set.clear();
    ASSERT_FALSE(set.Contains(PackedId(static_cast<uint32_t>(cycle), 0)));
  }
  // The cycles sweep a small table each (16 slots for 4 entries), never
  // the 131072 slots the large fill grew.
  const uint64_t swept_by_cycles = set.slots_swept() - swept_by_fill;
  EXPECT_LE(swept_by_cycles, 8 * kPerCycle * kCycles);
  EXPECT_LE(set.capacity(), 16u);
  // An empty set clears for free.
  const uint64_t before = set.slots_swept();
  for (int i = 0; i < 1000; ++i) set.clear();
  EXPECT_EQ(set.slots_swept(), before);
}

}  // namespace
}  // namespace natix::runtime

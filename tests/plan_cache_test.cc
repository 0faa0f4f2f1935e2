// The database-level prepared-plan cache: Compile()/Prepare() serve
// repeated queries from an LRU keyed by (translation options, xpath
// text); document loads invalidate everything (plans bake in name
// dictionary ids resolved at compile time).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"
#include "base/logging.h"
#include "api/plan_cache.h"

namespace natix {
namespace {

std::unique_ptr<Database> MakeDb(size_t cache_capacity) {
  Database::Options options;
  options.plan_cache_capacity = cache_capacity;
  auto db = Database::CreateTemp(options);
  NATIX_CHECK(db.ok());
  auto info =
      (*db)->LoadDocument("doc", "<r><a>1</a><a>2</a><b>9</b></r>");
  NATIX_CHECK(info.ok());
  return std::move(db).value();
}

TEST(PlanCacheTest, RepeatedPrepareSharesOnePlan) {
  auto db = MakeDb(8);
  auto first = db->Prepare("//a");
  ASSERT_TRUE(first.ok());
  auto second = db->Prepare("//a");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ(db->plan_cache().size(), 1u);
  EXPECT_EQ(db->plan_cache().hit_count(), 1u);
  EXPECT_EQ(db->plan_cache().miss_count(), 1u);
}

TEST(PlanCacheTest, CompileIsServedFromTheCacheToo) {
  auto db = MakeDb(8);
  ASSERT_TRUE(db->Compile("//a").ok());
  ASSERT_TRUE(db->Compile("//a").ok());
  ASSERT_TRUE(db->Compile("//b").ok());
  EXPECT_EQ(db->plan_cache().size(), 2u);
  EXPECT_EQ(db->plan_cache().hit_count(), 1u);
  EXPECT_EQ(db->plan_cache().miss_count(), 2u);
  // Executions over one cached plan stay independent.
  auto q1 = db->Compile("//a");
  auto q2 = db->Compile("//a");
  ASSERT_TRUE(q1.ok() && q2.ok());
  EXPECT_EQ(&(*q1)->prepared(), &(*q2)->prepared());
  EXPECT_NE(q1->get(), q2->get());
}

TEST(PlanCacheTest, LruEvictionDropsTheColdestPlan) {
  auto db = MakeDb(2);
  ASSERT_TRUE(db->Prepare("//a").ok());        // miss {a}
  ASSERT_TRUE(db->Prepare("//b").ok());        // miss {b,a}
  ASSERT_TRUE(db->Prepare("//a").ok());        // hit  {a,b}
  ASSERT_TRUE(db->Prepare("count(//a)").ok()); // miss, evicts //b
  EXPECT_EQ(db->plan_cache().size(), 2u);
  EXPECT_EQ(db->plan_cache().eviction_count(), 1u);
  ASSERT_TRUE(db->Prepare("//b").ok());        // miss again (evicted)
  EXPECT_EQ(db->plan_cache().hit_count(), 1u);
  EXPECT_EQ(db->plan_cache().miss_count(), 4u);
}

TEST(PlanCacheTest, KeyDistinguishesTranslatorOptions) {
  auto db = MakeDb(8);
  auto improved = db->Prepare("//a/b",
                              translate::TranslatorOptions::Improved());
  auto canonical = db->Prepare("//a/b",
                               translate::TranslatorOptions::Canonical());
  ASSERT_TRUE(improved.ok());
  ASSERT_TRUE(canonical.ok());
  EXPECT_NE(improved->get(), canonical->get());
  EXPECT_EQ(db->plan_cache().size(), 2u);
  EXPECT_EQ(db->plan_cache().hit_count(), 0u);

  EXPECT_NE(
      PlanCache::MakeKey("//a/b", translate::TranslatorOptions::Improved()),
      PlanCache::MakeKey("//a/b",
                         translate::TranslatorOptions::Canonical()));
  // The option fingerprint cannot collide with query text: "1//a" under
  // some options must not alias "//a" under others.
  EXPECT_NE(
      PlanCache::MakeKey("1//a", translate::TranslatorOptions::Improved()),
      PlanCache::MakeKey("//a", translate::TranslatorOptions::Improved()));
}

TEST(PlanCacheTest, DocumentLoadInvalidatesCachedPlans) {
  auto db = MakeDb(8);
  auto before = db->Prepare("//a");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(db->plan_cache().size(), 1u);

  // "//c" compiles against a dictionary with no "c": zero results.
  auto none = db->QueryNumber("doc", "count(//c)");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0.0);
  auto stale = db->Prepare("count(//c)");
  ASSERT_TRUE(stale.ok());

  // The reload introduces "c" and empties the cache.
  auto info = db->LoadDocument("doc2", "<r><c/><c/></r>");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(db->plan_cache().size(), 0u);

  // Names resolve at Prepare, so a handle prepared before the load keeps
  // its compile-time binding: "c" stays unresolved and counts nothing,
  // even in a fresh execution over the new document. This is what a
  // cached plan would keep returning had the load not invalidated it.
  auto stale_exec = (*stale)->NewExecution();
  ASSERT_TRUE(stale_exec.ok());
  auto stale_count = (*stale_exec)->EvaluateNumber(info->root);
  ASSERT_TRUE(stale_count.ok());
  EXPECT_EQ(*stale_count, 0.0);

  // A fresh Prepare after the load resolves "c".
  auto two = db->QueryNumber("doc2", "count(//c)");
  ASSERT_TRUE(two.ok());
  EXPECT_EQ(*two, 2.0);

  auto after = db->Prepare("//a");
  ASSERT_TRUE(after.ok());
  EXPECT_NE(before->get(), after->get());
}

TEST(PlanCacheTest, CapacityZeroDisablesCaching) {
  auto db = MakeDb(0);
  auto first = db->Prepare("//a");
  auto second = db->Prepare("//a");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->get(), second->get());
  EXPECT_EQ(db->plan_cache().size(), 0u);
  EXPECT_EQ(db->plan_cache().hit_count(), 0u);
}

TEST(PlanCacheTest, CompileErrorsAreNotCached) {
  auto db = MakeDb(8);
  EXPECT_FALSE(db->Prepare("//(((").ok());
  EXPECT_FALSE(db->Prepare("//(((").ok());
  EXPECT_EQ(db->plan_cache().size(), 0u);
  EXPECT_EQ(db->plan_cache().miss_count(), 2u);
}

}  // namespace
}  // namespace natix

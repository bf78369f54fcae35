#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "object/object_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace kimdb {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  ObjectStoreTest()
      : disk_(DiskManager::OpenInMemory()), bp_(disk_.get(), 256) {
    company_ = *cat_.CreateClass(
        "Company", {},
        {{"Name", Domain::String()}, {"Location", Domain::String()}});
    vehicle_ = *cat_.CreateClass(
        "Vehicle", {},
        {{"Weight", Domain::Int()}, {"Manufacturer", Domain::Ref(company_)}});
    truck_ = *cat_.CreateClass("Truck", {vehicle_},
                               {{"Payload", Domain::Int()}});
    auto store = ObjectStore::Open(&bp_, &cat_, nullptr);
    EXPECT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  Oid MustInsert(ClassId cls,
                 std::vector<std::pair<std::string, Value>> attrs,
                 Oid hint = kNilOid) {
    Result<Object> obj = BuildObject(cat_, cls, attrs);
    EXPECT_TRUE(obj.ok()) << obj.status().ToString();
    Result<Oid> oid = store_->Insert(1, cls, std::move(*obj), hint);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return *oid;
  }

  std::unique_ptr<DiskManager> disk_;
  BufferPool bp_;
  Catalog cat_;
  std::unique_ptr<ObjectStore> store_;
  ClassId company_, vehicle_, truck_;
};

TEST_F(ObjectStoreTest, InsertAssignsClassTaggedOid) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")},
                                  {"Location", Value::Str("Detroit")}});
  EXPECT_EQ(oid.class_id(), company_);
  EXPECT_TRUE(store_->Exists(oid));
  auto obj = store_->Get(oid);
  ASSERT_TRUE(obj.ok());
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  EXPECT_EQ(obj->Get(name).as_string(), "GM");
}

TEST_F(ObjectStoreTest, OidsAreUnique) {
  std::set<uint64_t> oids;
  for (int i = 0; i < 100; ++i) {
    Oid oid = MustInsert(company_, {{"Name", Value::Str("c")}});
    EXPECT_TRUE(oids.insert(oid.raw()).second);
  }
}

TEST_F(ObjectStoreTest, BuildObjectRejectsUnknownAttribute) {
  auto r = BuildObject(cat_, company_, {{"Nope", Value::Int(1)}});
  EXPECT_TRUE(r.status().IsNotFound());
}

TEST_F(ObjectStoreTest, InsertRejectsWrongType) {
  Object obj;
  AttrId weight = (*cat_.ResolveAttr(vehicle_, "Weight"))->id;
  obj.Set(weight, Value::Str("not an int"));
  EXPECT_TRUE(store_->Insert(1, vehicle_, std::move(obj))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ObjectStoreTest, InsertRejectsRefToWrongClass) {
  Oid truck_oid = MustInsert(truck_, {{"Weight", Value::Int(1)}});
  Object obj;
  AttrId manu = (*cat_.ResolveAttr(vehicle_, "Manufacturer"))->id;
  obj.Set(manu, Value::Ref(truck_oid));  // Truck is not a Company
  EXPECT_TRUE(store_->Insert(1, vehicle_, std::move(obj))
                  .status()
                  .IsInvalidArgument());
}

TEST_F(ObjectStoreTest, InheritedAttributesUsableOnSubclass) {
  Oid gm = MustInsert(company_, {{"Name", Value::Str("GM")}});
  Oid t = MustInsert(truck_, {{"Weight", Value::Int(8000)},
                              {"Payload", Value::Int(3000)},
                              {"Manufacturer", Value::Ref(gm)}});
  auto obj = store_->Get(t);
  ASSERT_TRUE(obj.ok());
  AttrId weight = (*cat_.ResolveAttr(truck_, "Weight"))->id;
  EXPECT_EQ(obj->Get(weight).as_int(), 8000);
}

TEST_F(ObjectStoreTest, UpdateAndSetAttr) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("Ford")},
                                  {"Location", Value::Str("Detroit")}});
  ASSERT_TRUE(store_->SetAttr(1, oid, "Location", Value::Str("Dearborn")).ok());
  auto obj = store_->Get(oid);
  ASSERT_TRUE(obj.ok());
  AttrId loc = (*cat_.ResolveAttr(company_, "Location"))->id;
  EXPECT_EQ(obj->Get(loc).as_string(), "Dearborn");
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  EXPECT_EQ(obj->Get(name).as_string(), "Ford");
}

TEST_F(ObjectStoreTest, DeleteRemovesObject) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("DeLorean")}});
  ASSERT_TRUE(store_->Delete(1, oid).ok());
  EXPECT_FALSE(store_->Exists(oid));
  EXPECT_TRUE(store_->Get(oid).status().IsNotFound());
  EXPECT_TRUE(store_->Delete(1, oid).IsNotFound());
}

TEST_F(ObjectStoreTest, SingleClassScanExcludesSubclasses) {
  MustInsert(vehicle_, {{"Weight", Value::Int(1000)}});
  MustInsert(truck_, {{"Weight", Value::Int(9000)}});
  int vehicles = 0;
  ASSERT_TRUE(store_->ForEachInClass(vehicle_, [&](const Object&) {
                       ++vehicles;
                       return Status::OK();
                     }).ok());
  EXPECT_EQ(vehicles, 1);
}

TEST_F(ObjectStoreTest, HierarchyScanIncludesSubclasses) {
  MustInsert(vehicle_, {{"Weight", Value::Int(1000)}});
  MustInsert(truck_, {{"Weight", Value::Int(9000)}});
  MustInsert(company_, {{"Name", Value::Str("GM")}});
  int n = 0;
  ASSERT_TRUE(store_->ForEachInHierarchy(vehicle_, [&](const Object&) {
                       ++n;
                       return Status::OK();
                     }).ok());
  EXPECT_EQ(n, 2);  // vehicle + truck, not company
}

// A scan callback may re-enter the store and start full scans of its own:
// of the class being scanned and of another class. Every scan keeps its
// own copy of the page bytes, so the nested scans see every object intact
// and the outer scan's remaining records survive them.
TEST_F(ObjectStoreTest, NestedScansInsideScanCallbackSeeIntactObjects) {
  AttrId weight = (*cat_.ResolveAttr(vehicle_, "Weight"))->id;
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  std::map<Oid, int64_t> weights;
  std::map<Oid, std::string> names;
  for (int i = 0; i < 300; ++i) {  // several extent pages per class
    weights[MustInsert(vehicle_, {{"Weight", Value::Int(1000 + i)}})] =
        1000 + i;
  }
  for (int i = 0; i < 120; ++i) {
    std::string n = std::string(48, 'c') + std::to_string(i);
    names[MustInsert(company_, {{"Name", Value::Str(n)}})] = n;
  }
  ASSERT_GT(store_->ExtentPages(vehicle_)->size(), 1u);
  ASSERT_GT(store_->ExtentPages(company_)->size(), 1u);

  auto vehicle_intact = [&](const Object& v) {
    auto it = weights.find(v.oid());
    return it != weights.end() && v.Get(weight).as_int() == it->second;
  };
  auto company_intact = [&](const Object& c) {
    auto it = names.find(c.oid());
    return it != names.end() && c.Get(name).as_string() == it->second;
  };
  size_t outer = 0;
  size_t bad = 0;
  Status st = store_->ForEachInClass(vehicle_, [&](const Object& v) {
    std::set<Oid> inner_vehicles, inner_companies;
    KIMDB_RETURN_IF_ERROR(
        store_->ForEachInClass(vehicle_, [&](const Object& w) {
          if (!vehicle_intact(w)) ++bad;
          inner_vehicles.insert(w.oid());
          return Status::OK();
        }));
    KIMDB_RETURN_IF_ERROR(
        store_->ForEachInClass(company_, [&](const Object& c) {
          if (!company_intact(c)) ++bad;
          inner_companies.insert(c.oid());
          return Status::OK();
        }));
    if (inner_vehicles.size() != weights.size()) ++bad;
    if (inner_companies.size() != names.size()) ++bad;
    if (!vehicle_intact(v)) ++bad;  // the outer image outlived both scans
    ++outer;
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(outer, weights.size());
  EXPECT_EQ(bad, 0u);
}

TEST_F(ObjectStoreTest, LazySchemaEvolutionFillsDefaults) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")}});
  // Evolve the schema after the object exists.
  ASSERT_TRUE(cat_.AddAttribute(company_, {"Employees", Domain::Int(),
                                           Value::Int(0)})
                  .ok());
  auto obj = store_->Get(oid);
  ASSERT_TRUE(obj.ok());
  AttrId emp = (*cat_.ResolveAttr(company_, "Employees"))->id;
  EXPECT_EQ(obj->Get(emp).as_int(), 0);  // default materialized on read
  // The stored image was not rewritten.
  auto raw = store_->GetRaw(oid);
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->Has(emp));
}

TEST_F(ObjectStoreTest, LazySchemaEvolutionElidesDroppedAttrs) {
  AttrId loc = (*cat_.ResolveAttr(company_, "Location"))->id;
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")},
                                  {"Location", Value::Str("Detroit")}});
  ASSERT_TRUE(cat_.DropAttribute(company_, "Location").ok());
  auto obj = store_->Get(oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(obj->Has(loc));
  // Raw image still carries the old value (lazy).
  auto raw = store_->GetRaw(oid);
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->Has(loc));
}

TEST_F(ObjectStoreTest, RewriteExtentMakesEvolutionEager) {
  AttrId loc = (*cat_.ResolveAttr(company_, "Location"))->id;
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")},
                                  {"Location", Value::Str("Detroit")}});
  ASSERT_TRUE(cat_.DropAttribute(company_, "Location").ok());
  ASSERT_TRUE(cat_.AddAttribute(company_, {"Ticker", Domain::String(),
                                           Value::Str("N/A")})
                  .ok());
  ASSERT_TRUE(store_->RewriteExtent(company_).ok());
  auto raw = store_->GetRaw(oid);
  ASSERT_TRUE(raw.ok());
  EXPECT_FALSE(raw->Has(loc));  // physically gone
  AttrId ticker = (*cat_.ResolveAttr(company_, "Ticker"))->id;
  EXPECT_EQ(raw->Get(ticker).as_string(), "N/A");  // physically present
}

TEST_F(ObjectStoreTest, DirectoryRebuiltOnReopen) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")}});
  ASSERT_TRUE(bp_.FlushAll().ok());
  // Reopen a fresh store over the same pages/catalog.
  auto store2 = ObjectStore::Open(&bp_, &cat_, nullptr);
  ASSERT_TRUE(store2.ok());
  EXPECT_TRUE((*store2)->Exists(oid));
  auto obj = (*store2)->Get(oid);
  ASSERT_TRUE(obj.ok());
  // Serial allocation continues past recovered objects.
  Object fresh;
  auto oid2 = (*store2)->Insert(1, company_, std::move(fresh));
  ASSERT_TRUE(oid2.ok());
  EXPECT_GT(oid2->serial(), oid.serial());
}

TEST_F(ObjectStoreTest, ClusterHintCoLocatesObjects) {
  Oid parent = MustInsert(company_, {{"Name", Value::Str("parent")}});
  Oid child = MustInsert(company_, {{"Name", Value::Str("child")}}, parent);
  auto rid_p = store_->DirectoryLookup(parent);
  auto rid_c = store_->DirectoryLookup(child);
  ASSERT_TRUE(rid_p.ok() && rid_c.ok());
  EXPECT_EQ(rid_p->page_id, rid_c->page_id);
}

TEST_F(ObjectStoreTest, ListenerSeesMutations) {
  struct Counter : ObjectStoreListener {
    int inserts = 0, updates = 0, deletes = 0;
    void OnInsert(const Object&) override { ++inserts; }
    void OnUpdate(const Object&, const Object&) override { ++updates; }
    void OnDelete(const Object&) override { ++deletes; }
  } counter;
  store_->AddListener(&counter);
  Oid oid = MustInsert(company_, {{"Name", Value::Str("X")}});
  ASSERT_TRUE(store_->SetAttr(1, oid, "Name", Value::Str("Y")).ok());
  ASSERT_TRUE(store_->Delete(1, oid).ok());
  store_->RemoveListener(&counter);
  MustInsert(company_, {{"Name", Value::Str("Z")}});
  EXPECT_EQ(counter.inserts, 1);
  EXPECT_EQ(counter.updates, 1);
  EXPECT_EQ(counter.deletes, 1);
}

TEST_F(ObjectStoreTest, CountClass) {
  for (int i = 0; i < 7; ++i) MustInsert(company_, {});
  auto n = store_->CountClass(company_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 7u);
}

TEST_F(ObjectStoreTest, ManyObjectsSurviveChurn) {
  std::vector<Oid> oids;
  for (int i = 0; i < 300; ++i) {
    oids.push_back(MustInsert(
        company_, {{"Name", Value::Str("c" + std::to_string(i))}}));
  }
  for (size_t i = 0; i < oids.size(); i += 3) {
    ASSERT_TRUE(store_->Delete(1, oids[i]).ok());
  }
  for (size_t i = 1; i < oids.size(); i += 3) {
    ASSERT_TRUE(store_->SetAttr(1, oids[i], "Name",
                                Value::Str("updated" + std::to_string(i)))
                    .ok());
  }
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  for (size_t i = 0; i < oids.size(); ++i) {
    auto obj = store_->Get(oids[i]);
    if (i % 3 == 0) {
      EXPECT_FALSE(obj.ok());
    } else if (i % 3 == 1) {
      ASSERT_TRUE(obj.ok());
      EXPECT_EQ(obj->Get(name).as_string(), "updated" + std::to_string(i));
    } else {
      ASSERT_TRUE(obj.ok());
      EXPECT_EQ(obj->Get(name).as_string(), "c" + std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------------
// Object-cache behavior (resident-object table, DESIGN.md §12). The
// fixture's store runs with the default cache; tests that need a specific
// budget (tiny or disabled) open their own store via CacheEnv.

TEST_F(ObjectStoreTest, CacheHitFlagAndCorrectness) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")},
                                  {"Location", Value::Str("Detroit")}});
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;

  bool hit = true;
  auto first = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(hit);  // cold: decoded from the heap
  auto second = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);  // warm: served from the cache
  EXPECT_EQ(second->Get(name).as_string(), "GM");
  EXPECT_EQ(first->Get(name).as_string(), second->Get(name).as_string());

  const ObjectCacheStats cs = store_->object_cache().stats();
  EXPECT_GE(cs.hits, 1u);
  EXPECT_GE(cs.misses, 1u);
  EXPECT_GE(cs.resident_objects, 1u);
}

TEST_F(ObjectStoreTest, CacheReturnsIndependentCopies) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")}});
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  auto a = store_->Get(oid);
  ASSERT_TRUE(a.ok());
  a->Set(name, Value::Str("scribbled"));  // must not leak into the cache
  auto b = store_->Get(oid);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->Get(name).as_string(), "GM");
}

TEST_F(ObjectStoreTest, GetSharedHitsAliasTheResidentImage) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")}});
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;

  auto a = store_->GetShared(oid);
  ASSERT_TRUE(a.ok());
  auto b = store_->GetShared(oid);
  ASSERT_TRUE(b.ok());
  // Both hits reference the single resident instance: zero-copy reads.
  EXPECT_EQ(a->get(), b->get());
  EXPECT_EQ((*a)->Get(name).as_string(), "GM");

  // A mutation drops the table's reference; the held pointer stays valid
  // and frozen at its lookup-time state, while a fresh read sees the new
  // value through a new instance.
  ASSERT_TRUE(store_->SetAttr(1, oid, "Name", Value::Str("GMC")).ok());
  EXPECT_EQ((*a)->Get(name).as_string(), "GM");
  auto c = store_->GetShared(oid);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->get(), c->get());
  EXPECT_EQ((*c)->Get(name).as_string(), "GMC");
}

TEST_F(ObjectStoreTest, UpdateInvalidatesCachedEntry) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("Ford")}});
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  ASSERT_TRUE(store_->Get(oid).ok());  // fill the cache

  ASSERT_TRUE(store_->SetAttr(1, oid, "Name", Value::Str("Ford Motor")).ok());
  bool hit = true;
  auto obj = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(hit);  // the stale image was dropped by the update
  EXPECT_EQ(obj->Get(name).as_string(), "Ford Motor");
  EXPECT_GE(store_->object_cache().stats().invalidations, 1u);
}

TEST_F(ObjectStoreTest, DeleteInvalidatesCachedEntry) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("DeLorean")}});
  ASSERT_TRUE(store_->Get(oid).ok());  // fill the cache
  ASSERT_TRUE(store_->Delete(1, oid).ok());
  auto obj = store_->Get(oid);
  EXPECT_FALSE(obj.ok());  // a stale hit would wrongly resurrect it
}

TEST_F(ObjectStoreTest, ApplyPathsInvalidateCachedEntry) {
  // Apply* is the undo/redo route (transaction abort, recovery); a cached
  // image surviving it would serve aborted state.
  Oid oid = MustInsert(company_, {{"Name", Value::Str("new")}});
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  ASSERT_TRUE(store_->Get(oid).ok());  // fill the cache

  auto before = store_->GetRaw(oid);
  ASSERT_TRUE(before.ok());
  before->Set(name, Value::Str("restored"));
  ASSERT_TRUE(store_->ApplyUpdate(*before).ok());
  bool hit = true;
  auto obj = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ(obj->Get(name).as_string(), "restored");

  ASSERT_TRUE(store_->Get(oid).ok());  // refill
  ASSERT_TRUE(store_->ApplyDelete(oid).ok());
  EXPECT_FALSE(store_->Get(oid).ok());
}

TEST_F(ObjectStoreTest, SchemaEvolutionInvalidatesCachedEntry) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")}});
  ASSERT_TRUE(store_->Get(oid).ok());  // cached against the old schema
  ASSERT_TRUE(cat_.AddAttribute(company_, {"Employees", Domain::Int(),
                                           Value::Int(42)})
                  .ok());
  bool hit = true;
  auto obj = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(hit);  // version tag mismatch forces re-materialization
  AttrId emp = (*cat_.ResolveAttr(company_, "Employees"))->id;
  EXPECT_EQ(obj->Get(emp).as_int(), 42);
}

TEST_F(ObjectStoreTest, RewriteExtentClearsCache) {
  Oid oid = MustInsert(company_, {{"Name", Value::Str("GM")},
                                  {"Location", Value::Str("Detroit")}});
  ASSERT_TRUE(store_->Get(oid).ok());
  ASSERT_TRUE(cat_.DropAttribute(company_, "Location").ok());
  ASSERT_TRUE(store_->RewriteExtent(company_).ok());
  bool hit = true;
  auto obj = store_->Get(oid, ObjectStore::kCurrent, &hit);
  ASSERT_TRUE(obj.ok());
  EXPECT_FALSE(hit);
  AttrId name = (*cat_.ResolveAttr(company_, "Name"))->id;
  EXPECT_TRUE(obj->Has(name));
}

// Standalone engine with an explicit cache budget.
struct CacheEnv {
  std::unique_ptr<DiskManager> disk;
  std::unique_ptr<BufferPool> bp;
  Catalog cat;
  std::unique_ptr<ObjectStore> store;
  ClassId cls;

  explicit CacheEnv(size_t cache_bytes)
      : disk(DiskManager::OpenInMemory()),
        bp(std::make_unique<BufferPool>(disk.get(), 256)) {
    cls = *cat.CreateClass("Doc", {}, {{"Body", Domain::String()}});
    auto s = ObjectStore::Open(bp.get(), &cat, /*wal=*/nullptr,
                               /*attach_to_catalog=*/true, cache_bytes);
    EXPECT_TRUE(s.ok());
    store = std::move(*s);
  }

  Oid MustInsert(std::string body) {
    Result<Object> obj =
        BuildObject(cat, cls, {{"Body", Value::Str(std::move(body))}});
    EXPECT_TRUE(obj.ok()) << obj.status().ToString();
    Result<Oid> oid = store->Insert(1, cls, std::move(*obj), kNilOid);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    return *oid;
  }
};

TEST(ObjectCacheModeTest, DisabledCachePreservesBehavior) {
  CacheEnv env(/*cache_bytes=*/0);
  EXPECT_FALSE(env.store->object_cache().enabled());
  Oid oid = env.MustInsert("hello");
  AttrId body = (*env.cat.ResolveAttr(env.cls, "Body"))->id;
  bool hit = true;
  for (int i = 0; i < 3; ++i) {
    auto obj = env.store->Get(oid, ObjectStore::kCurrent, &hit);
    ASSERT_TRUE(obj.ok());
    EXPECT_FALSE(hit);  // never served from cache
    EXPECT_EQ(obj->Get(body).as_string(), "hello");
  }
  ASSERT_TRUE(env.store->SetAttr(1, oid, "Body", Value::Str("bye")).ok());
  auto obj = env.store->Get(oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->Get(body).as_string(), "bye");
  // A disabled cache counts nothing and holds nothing.
  const ObjectCacheStats cs = env.store->object_cache().stats();
  EXPECT_EQ(cs.hits, 0u);
  EXPECT_EQ(cs.misses, 0u);
  EXPECT_EQ(cs.resident_objects, 0u);
  EXPECT_EQ(cs.resident_bytes, 0u);
}

TEST(ObjectCacheModeTest, EvictionRespectsByteBudget) {
  constexpr size_t kBudget = 16 * 1024;
  CacheEnv env(kBudget);
  // Far more payload than the budget: ~200 objects x ~512B strings.
  std::vector<Oid> oids;
  for (int i = 0; i < 200; ++i) {
    oids.push_back(env.MustInsert(std::string(512, 'a' + (i % 26))));
  }
  for (Oid oid : oids) ASSERT_TRUE(env.store->Get(oid).ok());
  const ObjectCacheStats cs = env.store->object_cache().stats();
  EXPECT_GT(cs.evictions, 0u);
  EXPECT_LE(cs.resident_bytes, kBudget);
  EXPECT_LT(cs.resident_objects, oids.size());
  // Evicted entries still read correctly (back through the heap).
  AttrId body = (*env.cat.ResolveAttr(env.cls, "Body"))->id;
  auto obj = env.store->Get(oids[0]);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->Get(body).as_string(), std::string(512, 'a'));
}

TEST(ObjectCacheModeTest, OversizedObjectsAreNotCached) {
  constexpr size_t kBudget = 8 * 1024;  // shard budget 1 KiB; half = 512 B
  CacheEnv env(kBudget);
  Oid big = env.MustInsert(std::string(2048, 'x'));
  bool hit = true;
  ASSERT_TRUE(env.store->Get(big, ObjectStore::kCurrent, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(env.store->Get(big, ObjectStore::kCurrent, &hit).ok());
  EXPECT_FALSE(hit);  // never admitted: would wipe the whole shard
  EXPECT_EQ(env.store->object_cache().stats().resident_objects, 0u);
}

}  // namespace
}  // namespace kimdb

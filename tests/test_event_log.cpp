// Tests for the replicated event log: dedup, ordering, high-water marks,
// watermarks, bounded retention, and crash recovery from stable storage.
#include <gtest/gtest.h>

#include "core/event_log.hpp"

namespace riv::core {
namespace {

devices::SensorEvent ev(std::uint16_t sensor, std::uint32_t seq,
                        std::int64_t t_us) {
  devices::SensorEvent e;
  e.id = {SensorId{sensor}, seq};
  e.emitted_at = TimePoint{t_us};
  e.value = static_cast<double>(seq);
  e.payload_size = 4;
  return e;
}

TEST(EventLog, AppendAndSeen) {
  EventLog log(AppId{1}, nullptr, 100);
  EXPECT_FALSE(log.seen({SensorId{1}, 1}));
  EXPECT_TRUE(log.append(ev(1, 1, 10), {ProcessId{1}}, {ProcessId{1}}));
  EXPECT_TRUE(log.seen({SensorId{1}, 1}));
  EXPECT_EQ(log.size(SensorId{1}), 1u);
}

TEST(EventLog, DuplicateAppendRejected) {
  EventLog log(AppId{1}, nullptr, 100);
  EXPECT_TRUE(log.append(ev(1, 1, 10), {}, {}));
  EXPECT_FALSE(log.append(ev(1, 1, 10), {}, {}));
  EXPECT_EQ(log.size(SensorId{1}), 1u);
}

TEST(EventLog, StreamsAreIndependent) {
  EventLog log(AppId{1}, nullptr, 100);
  log.append(ev(1, 1, 10), {}, {});
  log.append(ev(2, 1, 20), {}, {});
  EXPECT_EQ(log.size(SensorId{1}), 1u);
  EXPECT_EQ(log.size(SensorId{2}), 1u);
  EXPECT_EQ(log.sensors().size(), 2u);
}

TEST(EventLog, HighWaterTracksMaxEmittedAt) {
  EventLog log(AppId{1}, nullptr, 100);
  EXPECT_EQ(log.high_water(SensorId{1}), TimePoint{});
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 2, 300), {}, {});
  log.append(ev(1, 3, 200), {}, {});  // out-of-order arrival
  EXPECT_EQ(log.high_water(SensorId{1}), TimePoint{300});
}

TEST(EventLog, EventsAfterReturnsOrderedSuffix) {
  EventLog log(AppId{1}, nullptr, 100);
  for (std::uint32_t i = 1; i <= 5; ++i)
    log.append(ev(1, i, 100 * i), {}, {});
  auto suffix = log.events_after(SensorId{1}, TimePoint{200});
  ASSERT_EQ(suffix.size(), 3u);
  EXPECT_EQ(suffix[0]->event.id.seq, 3u);
  EXPECT_EQ(suffix[2]->event.id.seq, 5u);
}

TEST(EventLog, MergeSetsUnions) {
  EventLog log(AppId{1}, nullptr, 100);
  log.append(ev(1, 1, 10), {ProcessId{1}}, {ProcessId{1}, ProcessId{2}});
  log.merge_sets({SensorId{1}, 1}, {ProcessId{3}}, {ProcessId{4}});
  const StoredEvent* se = log.find({SensorId{1}, 1});
  ASSERT_NE(se, nullptr);
  EXPECT_EQ(se->seen.size(), 2u);
  EXPECT_EQ(se->need.size(), 3u);
}

TEST(EventLog, ProcessedWatermarkMonotonic) {
  EventLog log(AppId{1}, nullptr, 100);
  log.advance_processed_watermark(SensorId{1}, TimePoint{100});
  log.advance_processed_watermark(SensorId{1}, TimePoint{50});  // ignored
  EXPECT_EQ(log.processed_watermark(SensorId{1}), TimePoint{100});
  log.advance_processed_watermark(SensorId{1}, TimePoint{200});
  EXPECT_EQ(log.processed_watermark(SensorId{1}), TimePoint{200});
}

TEST(EventLog, CapEvictsOldestEntries) {
  EventLog log(AppId{1}, nullptr, 3);
  for (std::uint32_t i = 1; i <= 10; ++i) log.append(ev(1, i, i), {}, {});
  EXPECT_EQ(log.size(SensorId{1}), 3u);
  EXPECT_FALSE(log.seen({SensorId{1}, 1}));
  EXPECT_TRUE(log.seen({SensorId{1}, 10}));
}

TEST(EventLog, RecoversFromStableStore) {
  sim::StableStore store;
  {
    EventLog log(AppId{1}, &store, 100);
    log.append(ev(1, 1, 100), {ProcessId{1}}, {ProcessId{1}, ProcessId{2}});
    log.append(ev(1, 2, 200), {ProcessId{1}}, {ProcessId{1}});
    log.append(ev(2, 7, 300), {}, {});
    log.advance_processed_watermark(SensorId{1}, TimePoint{150});
    log.persist_durable();  // crash point
  }  // crash: the in-memory log dies
  EventLog recovered(AppId{1}, &store, 100);
  recovered.recover();
  EXPECT_TRUE(recovered.seen({SensorId{1}, 1}));
  EXPECT_TRUE(recovered.seen({SensorId{1}, 2}));
  EXPECT_TRUE(recovered.seen({SensorId{2}, 7}));
  EXPECT_EQ(recovered.high_water(SensorId{1}), TimePoint{200});
  EXPECT_EQ(recovered.processed_watermark(SensorId{1}), TimePoint{150});
  const StoredEvent* se = recovered.find({SensorId{1}, 1});
  ASSERT_NE(se, nullptr);
  EXPECT_EQ(se->seen.count(ProcessId{1}), 1u);
  EXPECT_EQ(se->need.size(), 2u);
}

TEST(EventLog, RecoveryIsScopedPerApp) {
  sim::StableStore store;
  {
    EventLog a(AppId{1}, &store, 100);
    a.append(ev(1, 1, 100), {}, {});
    EventLog b(AppId{2}, &store, 100);
    b.append(ev(1, 9, 100), {}, {});
    a.persist_durable();  // crash point
    b.persist_durable();
  }
  EventLog recovered(AppId{1}, &store, 100);
  recovered.recover();
  EXPECT_TRUE(recovered.seen({SensorId{1}, 1}));
  EXPECT_FALSE(recovered.seen({SensorId{1}, 9}));
}

TEST(EventLog, EvictionAlsoClearsStableStore) {
  sim::StableStore store;
  EventLog log(AppId{1}, &store, 2);
  for (std::uint32_t i = 1; i <= 5; ++i) log.append(ev(1, i, i), {}, {});
  log.persist_durable();  // crash point
  EventLog recovered(AppId{1}, &store, 2);
  recovered.recover();
  EXPECT_EQ(recovered.size(SensorId{1}), 2u);
  EXPECT_TRUE(recovered.seen({SensorId{1}, 5}));
  EXPECT_FALSE(recovered.seen({SensorId{1}, 1}));
}

// The durable form holds what survives a crash and no more: a value in a
// payload narrower than 8 bytes comes back quantized to milli-units, the
// integrity trailer (chain, mac) comes back zero, a t=0 watermark is not
// written, and the eviction floor is. Nothing reaches the store before the
// crash point, and recovery erases what it read.
TEST(EventLog, DurableFormPinsWhatSurvivesACrash) {
  sim::StableStore store;
  {
    EventLog log(AppId{1}, &store, 2);
    devices::SensorEvent narrow = ev(1, 1, 100);  // 4-byte payload
    narrow.value = 1.23456;
    narrow.chain = 0xc4a1;
    narrow.mac = 0x3ac;
    log.append(narrow, {ProcessId{1}}, {ProcessId{2}});
    for (std::uint32_t i = 1; i <= 3; ++i)
      log.append(ev(2, i, 100 * i), {}, {});  // cap 2: seq 1 evicted
    log.advance_processed_watermark(SensorId{1}, TimePoint{});
    log.advance_processed_watermark(SensorId{2}, TimePoint{250});
    EXPECT_EQ(store.size(), 0u);
    log.persist_durable();  // crash point
  }
  EXPECT_FALSE(store.contains("app1/hw/1"));
  EXPECT_TRUE(store.contains("app1/hw/2"));
  EXPECT_FALSE(store.contains("app1/fr/1"));
  EXPECT_TRUE(store.contains("app1/fr/2"));

  EventLog recovered(AppId{1}, &store, 2);
  recovered.recover();
  EXPECT_EQ(store.size(), 0u);
  const StoredEvent* se = recovered.find({SensorId{1}, 1});
  ASSERT_NE(se, nullptr);
  EXPECT_DOUBLE_EQ(se->event.value, 1.235);
  EXPECT_EQ(se->event.chain, 0u);
  EXPECT_EQ(se->event.mac, 0u);
  EXPECT_EQ(se->seen.count(ProcessId{1}), 1u);
  EXPECT_EQ(se->need.count(ProcessId{2}), 1u);
  EXPECT_EQ(recovered.processed_watermark(SensorId{2}), TimePoint{250});
  EXPECT_FALSE(recovered.seen({SensorId{2}, 1}));
  EXPECT_EQ(recovered.prefix_high_water(SensorId{2}), TimePoint{300});
}

TEST(EventLog, DurableKeysAreRecognised) {
  EXPECT_TRUE(EventLog::is_durable_key("app1/ev/2/0000000003"));
  EXPECT_TRUE(EventLog::is_durable_key("app12/hw/2"));
  EXPECT_TRUE(EventLog::is_durable_key("app1/fr/2"));
  EXPECT_FALSE(EventLog::is_durable_key("kv/app1/ev/2"));
  EXPECT_FALSE(EventLog::is_durable_key("app1/evx"));
  EXPECT_FALSE(EventLog::is_durable_key("app1"));
}

}  // namespace
}  // namespace riv::core

// --- appended: prefix high-water (hole-aware sync mark) -------------------

namespace riv::core {
namespace {

TEST(EventLogPrefix, EqualsHighWaterWhenContiguous) {
  EventLog log(AppId{1}, nullptr, 100);
  for (std::uint32_t i = 1; i <= 5; ++i) log.append(ev(1, i, 100 * i), {}, {});
  EXPECT_EQ(log.prefix_high_water(SensorId{1}), TimePoint{500});
  EXPECT_EQ(log.prefix_high_water(SensorId{1}),
            log.high_water(SensorId{1}));
}

TEST(EventLogPrefix, StopsAtFirstHole) {
  EventLog log(AppId{1}, nullptr, 100);
  log.append(ev(1, 1, 100), {}, {});
  log.append(ev(1, 2, 200), {}, {});
  log.append(ev(1, 4, 400), {}, {});  // seq 3 missing
  log.append(ev(1, 5, 500), {}, {});
  EXPECT_EQ(log.prefix_high_water(SensorId{1}), TimePoint{200});
  EXPECT_EQ(log.high_water(SensorId{1}), TimePoint{500});
}

TEST(EventLogPrefix, MissingHeadReportsZero) {
  // A process that missed the stream's start must ask for everything.
  EventLog log(AppId{1}, nullptr, 100);
  log.append(ev(1, 10, 1000), {}, {});
  log.append(ev(1, 11, 1100), {}, {});
  EXPECT_EQ(log.prefix_high_water(SensorId{1}), TimePoint{});
}

TEST(EventLogPrefix, EvictionRaisesTheFloor) {
  EventLog log(AppId{1}, nullptr, 3);
  for (std::uint32_t i = 1; i <= 6; ++i) log.append(ev(1, i, 100 * i), {}, {});
  // Seqs 1-3 evicted by the cap: the retained floor moved to 4, so the
  // remaining 4..6 run is a valid prefix again.
  EXPECT_EQ(log.prefix_high_water(SensorId{1}), TimePoint{600});
}

TEST(EventLogPrefix, FloorSurvivesRecovery) {
  sim::StableStore store;
  {
    EventLog log(AppId{1}, &store, 3);
    for (std::uint32_t i = 1; i <= 6; ++i)
      log.append(ev(1, i, 100 * i), {}, {});
    log.persist_durable();  // crash point
  }
  EventLog recovered(AppId{1}, &store, 3);
  recovered.recover();
  EXPECT_EQ(recovered.prefix_high_water(SensorId{1}), TimePoint{600});
}

}  // namespace
}  // namespace riv::core

// Future reservations ([Haf 96] extension): capacity calendars and the
// advance-booking planner.
#include "advance/calendar.hpp"
#include "advance/planner.hpp"

#include <gtest/gtest.h>

#include "core/classify.hpp"
#include "core/enumerate.hpp"
#include "test_system.hpp"

namespace qosnp {
namespace {

using testing::TestSystem;

TEST(Calendar, BookAndUsage) {
  CapacityCalendar cal(10'000'000);
  auto b = cal.book(4'000'000, 10.0, 20.0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cal.usage_at(15.0), 4'000'000);
  EXPECT_EQ(cal.usage_at(5.0), 0);
  EXPECT_EQ(cal.usage_at(20.0), 0);  // end is exclusive
  EXPECT_TRUE(cal.cancel(b.value()));
  EXPECT_FALSE(cal.cancel(b.value()));
  EXPECT_EQ(cal.usage_at(15.0), 0);
}

TEST(Calendar, PeakUsageOverWindow) {
  CapacityCalendar cal(10'000'000);
  ASSERT_TRUE(cal.book(3'000'000, 0.0, 10.0).ok());
  ASSERT_TRUE(cal.book(4'000'000, 5.0, 15.0).ok());
  EXPECT_EQ(cal.peak_usage(0.0, 20.0), 7'000'000);
  EXPECT_EQ(cal.peak_usage(0.0, 4.0), 3'000'000);
  EXPECT_EQ(cal.peak_usage(11.0, 20.0), 4'000'000);
}

TEST(Calendar, FitsRespectsCapacity) {
  CapacityCalendar cal(10'000'000);
  ASSERT_TRUE(cal.book(6'000'000, 0.0, 100.0).ok());
  EXPECT_TRUE(cal.fits(4'000'000, 0.0, 100.0));
  EXPECT_FALSE(cal.fits(5'000'000, 0.0, 100.0));
  EXPECT_TRUE(cal.fits(10'000'000, 100.0, 200.0));  // after the booking
  EXPECT_FALSE(cal.fits(0, 0.0, 1.0));
  EXPECT_FALSE(cal.fits(1, 5.0, 5.0));  // empty window
}

TEST(Calendar, BookRejectsOverCommit) {
  CapacityCalendar cal(10'000'000);
  ASSERT_TRUE(cal.book(8'000'000, 0.0, 50.0).ok());
  EXPECT_FALSE(cal.book(3'000'000, 25.0, 75.0).ok());
  EXPECT_TRUE(cal.book(3'000'000, 50.0, 75.0).ok());
}

TEST(Calendar, EarliestFitSkipsToBookingEnds) {
  CapacityCalendar cal(10'000'000);
  ASSERT_TRUE(cal.book(8'000'000, 0.0, 30.0).ok());
  ASSERT_TRUE(cal.book(8'000'000, 40.0, 60.0).ok());
  // A 5 Mbit/s booking of 10s: doesn't fit at 0, fits at 30 (gap 30..40).
  auto t = cal.earliest_fit(5'000'000, 10.0, 0.0, 1'000.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 30.0);
  // A 15s booking doesn't fit in the gap; earliest is 60.
  t = cal.earliest_fit(5'000'000, 15.0, 0.0, 1'000.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 60.0);
  // Beyond the horizon: no fit.
  EXPECT_FALSE(cal.earliest_fit(5'000'000, 15.0, 0.0, 50.0).has_value());
}

TEST(Calendar, TrimDropsPastBookings) {
  CapacityCalendar cal(10'000'000);
  ASSERT_TRUE(cal.book(1'000'000, 0.0, 10.0).ok());
  ASSERT_TRUE(cal.book(1'000'000, 20.0, 30.0).ok());
  cal.trim(15.0);
  EXPECT_EQ(cal.booking_count(), 1u);
}

// --- Planner over a real offer list. --------------------------------------

struct PlannerFixture : public ::testing::Test {
  PlannerFixture() {
    for (int i = 0; i < 2; ++i) {
      MediaServerConfig s;
      s.id = i == 0 ? "server-a" : "server-b";
      s.node = "server-node-" + std::to_string(i);
      s.disk_bandwidth_bps = 100'000'000;
      s.max_sessions = 32;
      servers.push_back(std::move(s));
    }
  }

  OfferList classified_offers(const UserProfile& profile) {
    auto doc = sys.catalog.find("article");
    auto feasible = compatible_variants(doc, sys.client, profile.mm);
    EXPECT_TRUE(feasible.ok());
    OfferList list = enumerate_offers(feasible.value(), profile.mm, CostModel{});
    classify_offers(list.eager, profile.mm, profile.importance);
    return list;
  }

  TestSystem sys;
  std::vector<MediaServerConfig> servers;
};

TEST_F(PlannerFixture, EmptySystemPlansImmediately) {
  FutureReservationPlanner planner(sys.transport->topology(), servers);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList offers = classified_offers(profile);
  auto plan = planner.plan(sys.client, offers, profile.mm, 100.0);
  ASSERT_TRUE(plan.ok()) << plan.error();
  EXPECT_DOUBLE_EQ(plan.value().start_s, 100.0);
  EXPECT_TRUE(plan.value().satisfies_user);
  EXPECT_EQ(plan.value().offer_index, 0u);  // the best offer fits at once
  EXPECT_EQ(planner.active_plans(), 1u);
}

TEST_F(PlannerFixture, SecondPlanStartsAfterBlockingBooking) {
  // Shrink the client's access link so only one video stream fits at a time.
  Topology narrow = Topology::dumbbell(1, 2, 12'000'000, 400'000'000);
  FutureReservationPlanner planner(narrow, servers);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList offers = classified_offers(profile);

  auto first = planner.plan(sys.client, offers, profile.mm, 0.0);
  ASSERT_TRUE(first.ok()) << first.error();
  EXPECT_DOUBLE_EQ(first.value().start_s, 0.0);

  auto second = planner.plan(sys.client, offers, profile.mm, 0.0);
  ASSERT_TRUE(second.ok()) << second.error();
  // Either a leaner simultaneous configuration or a deferred start; if it
  // starts at 0 it must be a different (leaner) offer.
  if (second.value().start_s == 0.0) {
    EXPECT_NE(second.value().offer_index, first.value().offer_index);
  } else {
    EXPECT_GE(second.value().start_s, first.value().end_s);
  }
}

TEST_F(PlannerFixture, DeferredStartWhenNothingFitsNow) {
  // Access link fits exactly one *minimal* stream; saturate it with the
  // best offer, then ask for the same again with a floor that rules out
  // leaner variants -> the plan must be deferred.
  Topology narrow = Topology::dumbbell(1, 2, 12'000'000, 400'000'000);
  FutureReservationPlanner planner(narrow, servers);
  UserProfile strict = TestSystem::tolerant_profile();
  strict.mm.video->worst = VideoQoS{ColorDepth::kColor, 25, 640};  // only the rich variants
  strict.mm.audio.reset();
  strict.mm.text.reset();
  OfferList offers = classified_offers(strict);

  auto first = planner.plan(sys.client, offers, strict.mm, 0.0);
  ASSERT_TRUE(first.ok()) << first.error();
  auto second = planner.plan(sys.client, offers, strict.mm, 0.0);
  ASSERT_TRUE(second.ok()) << second.error();
  EXPECT_GE(second.value().start_s, first.value().end_s);
  EXPECT_GT(second.value().start_s, 0.0);
}

TEST_F(PlannerFixture, HorizonBoundsTheSearch) {
  Topology narrow = Topology::dumbbell(1, 2, 12'000'000, 400'000'000);
  FutureReservationPlanner::Config config;
  config.max_start_delay_s = 10.0;  // much shorter than a playout
  FutureReservationPlanner planner(narrow, servers, config);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList offers = classified_offers(profile);
  // Keep planning until the 10 s window after t=0 is exhausted; every
  // admitted plan must start within the horizon, and the planner must
  // eventually refuse instead of booking arbitrarily far out.
  int admitted = 0;
  for (int i = 0; i < 64; ++i) {
    auto plan = planner.plan(sys.client, offers, profile.mm, 0.0);
    if (!plan.ok()) break;
    EXPECT_LE(plan.value().start_s, 10.0);
    ++admitted;
  }
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, 64);
}

TEST_F(PlannerFixture, CancelFreesTheWindow) {
  Topology narrow = Topology::dumbbell(1, 2, 12'000'000, 400'000'000);
  FutureReservationPlanner planner(narrow, servers);
  UserProfile strict = TestSystem::tolerant_profile();
  strict.mm.video->worst = VideoQoS{ColorDepth::kColor, 25, 640};
  strict.mm.audio.reset();
  strict.mm.text.reset();
  OfferList offers = classified_offers(strict);
  auto first = planner.plan(sys.client, offers, strict.mm, 0.0);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(planner.cancel(first.value().id));
  auto second = planner.plan(sys.client, offers, strict.mm, 0.0);
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(second.value().start_s, 0.0);
  EXPECT_FALSE(planner.cancel(first.value().id));
}

TEST_F(PlannerFixture, UnknownServerVariantIsSkippedGracefully) {
  // An offer referencing a server the planner has no calendar for cannot be
  // planned; the planner reports failure instead of crashing.
  FutureReservationPlanner planner(sys.transport->topology(), {});  // no servers at all
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList offers = classified_offers(profile);
  auto plan = planner.plan(sys.client, offers, profile.mm, 0.0);
  EXPECT_FALSE(plan.ok());
}

TEST_F(PlannerFixture, TrimDoesNotAffectLivePlans) {
  FutureReservationPlanner planner(sys.transport->topology(), servers);
  const UserProfile profile = TestSystem::tolerant_profile();
  OfferList offers = classified_offers(profile);
  auto plan = planner.plan(sys.client, offers, profile.mm, 100.0);
  ASSERT_TRUE(plan.ok());
  planner.trim(50.0);  // before the plan's window: nothing to drop
  EXPECT_EQ(planner.active_plans(), 1u);
  // The window is still occupied: an identical strict request defers.
  EXPECT_TRUE(planner.cancel(plan.value().id));
}

TEST_F(PlannerFixture, EarliestStartMonotoneInLoad) {
  Topology narrow = Topology::dumbbell(1, 2, 12'000'000, 400'000'000);
  FutureReservationPlanner planner(narrow, servers);
  UserProfile strict = TestSystem::tolerant_profile();
  strict.mm.video->worst = VideoQoS{ColorDepth::kColor, 25, 640};
  strict.mm.audio.reset();
  strict.mm.text.reset();
  OfferList offers = classified_offers(strict);
  double last_start = -1.0;
  for (int i = 0; i < 4; ++i) {
    auto plan = planner.plan(sys.client, offers, strict.mm, 0.0);
    ASSERT_TRUE(plan.ok()) << plan.error();
    EXPECT_GE(plan.value().start_s, last_start);
    last_start = plan.value().start_s;
  }
}

}  // namespace
}  // namespace qosnp

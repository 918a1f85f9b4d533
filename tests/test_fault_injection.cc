/**
 * @file
 * Unit tests for the deterministic fault-injection harness: spec
 * parsing, per-key occurrence windows, substring vs exact key matching,
 * seeded-probability determinism, and the process-global injector's
 * env re-arming (including the exit-2 contract for malformed specs and
 * the SIGKILL semantics of the "die" point).
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "sim/fault_injection.hh"

#include "scoped_env.hh"

namespace ev8
{
namespace
{

TEST(FaultInjector, DefaultConstructedInjectsNothing)
{
    FaultInjector faults;
    EXPECT_FALSE(faults.enabled());
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "g0/r0/gcc"));
    EXPECT_NO_THROW(faults.maybeThrow(FaultPoint::Job, "g0/r0/gcc"));
    EXPECT_NO_THROW(faults.maybeKill("g0/r0/gcc"));
}

TEST(FaultInjector, EmptySpecArmsNothing)
{
    FaultInjector faults{std::string()};
    EXPECT_FALSE(faults.enabled());
}

TEST(FaultInjector, ParsesEveryPointName)
{
    for (const char *spec :
         {"job", "die", "cache_read", "cache_write", "cache_rename",
          "cache_short_write", "ckpt_read", "ckpt_write",
          "ckpt_corrupt", "sidecar_read", "sidecar_write"}) {
        EXPECT_TRUE(FaultInjector{std::string(spec)}.enabled()) << spec;
    }
}

TEST(FaultInjector, RejectsMalformedSpecs)
{
    for (const char *spec :
         {"bogus", "job@0", "job@", "job@two", "job+0", "job+",
          "job~", "job~1.5", "job~-0.1", "job~x", "seed=", "seed=12x",
          ",", "job,,job"}) {
        EXPECT_THROW(FaultInjector{std::string(spec)},
                     std::invalid_argument)
            << "'" << spec << "' should not parse";
    }
}

TEST(FaultInjector, OccurrenceWindowFirstAndCount)
{
    // Fires on occurrences 2 and 3 of each key, nothing else.
    FaultInjector faults("job@2+2");
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "k")); // occurrence 1
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "k"));  // 2
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "k"));  // 3
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "k")); // 4
}

TEST(FaultInjector, OccurrencesAreCountedPerKey)
{
    // A one-shot fault fires once for EVERY distinct matching key,
    // regardless of the order the keys are consulted in.
    FaultInjector faults("job");
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "a"));
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "b"));
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "a"));
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "b"));
}

TEST(FaultInjector, PermanentFaultNeverHeals)
{
    FaultInjector faults("job/=g0/r0/gcc+*");
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(faults.fires(FaultPoint::Job, "g0/r0/gcc")) << i;
}

TEST(FaultInjector, ExactKeyMatchRequiresFullKey)
{
    FaultInjector faults("job/=g0/r0/gcc+*");
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "g0/r0/gcc2"));
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "xg0/r0/gcc"));
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "g0/r0/go"));
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "g0/r0/gcc"));
}

TEST(FaultInjector, SubstringKeyMatchesAnyContainingKey)
{
    FaultInjector faults("job/gcc+*");
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "g0/r0/gcc"));
    EXPECT_TRUE(faults.fires(FaultPoint::Job, "g7/r3/gcc"));
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "g0/r0/compress"));
}

TEST(FaultInjector, PointsDoNotCrossFire)
{
    FaultInjector faults("cache_read+*");
    EXPECT_FALSE(faults.fires(FaultPoint::Job, "k"));
    EXPECT_FALSE(faults.fires(FaultPoint::CacheWrite, "k"));
    EXPECT_TRUE(faults.fires(FaultPoint::CacheRead, "k"));
}

TEST(FaultInjector, MaybeThrowRaisesInjectedFaultWithContext)
{
    FaultInjector faults("ckpt_write/=some-path+*");
    try {
        faults.maybeThrow(FaultPoint::CkptWrite, "some-path");
        FAIL() << "expected InjectedFault";
    } catch (const InjectedFault &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("ckpt_write"), std::string::npos) << what;
        EXPECT_NE(what.find("some-path"), std::string::npos) << what;
    }
}

TEST(FaultInjector, PointNamesMatchSpecSpelling)
{
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::Job), "job");
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::Die), "die");
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::CacheShortWrite),
                 "cache_short_write");
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::CkptCorrupt),
                 "ckpt_corrupt");
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::SidecarRead),
                 "sidecar_read");
    EXPECT_STREQ(FaultInjector::pointName(FaultPoint::SidecarWrite),
                 "sidecar_write");
}

TEST(FaultInjector, ProbabilityIsDeterministicPerSeed)
{
    const std::string spec = "seed=7,job+*~0.5";
    FaultInjector a(spec);
    FaultInjector b(spec);
    int fired = 0;
    for (int i = 0; i < 64; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        const bool fa = a.fires(FaultPoint::Job, key);
        const bool fb = b.fires(FaultPoint::Job, key);
        EXPECT_EQ(fa, fb) << key;
        fired += fa ? 1 : 0;
    }
    // ~32 of 64 keys should fire; generous bounds, the point is that
    // the gate is neither always-on nor always-off.
    EXPECT_GT(fired, 8);
    EXPECT_LT(fired, 56);

    // A different seed reshuffles which keys fire.
    FaultInjector a2(spec);
    FaultInjector c("seed=8,job+*~0.5");
    bool any_difference = false;
    for (int i = 0; i < 64; ++i) {
        const std::string key = "cell-" + std::to_string(i);
        if (a2.fires(FaultPoint::Job, key)
            != c.fires(FaultPoint::Job, key)) {
            any_difference = true;
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST(FaultInjector, GlobalRearmsWhenEnvChanges)
{
    {
        ScopedEnv env("EV8_FAULT_SPEC", "job/=unit-test-key+*");
        EXPECT_TRUE(FaultInjector::global().enabled());
        EXPECT_TRUE(FaultInjector::global().fires(FaultPoint::Job,
                                                  "unit-test-key"));
        EXPECT_FALSE(
            FaultInjector::global().fires(FaultPoint::Job, "other-key"));
    }
    {
        ScopedEnv env("EV8_FAULT_SPEC", nullptr);
        EXPECT_FALSE(FaultInjector::global().enabled());
        EXPECT_FALSE(FaultInjector::global().fires(FaultPoint::Job,
                                                   "unit-test-key"));
    }
}

TEST(FaultInjectorDeathTest, GlobalExitsOnMalformedEnvSpec)
{
    EXPECT_EXIT(
        {
            ::setenv("EV8_FAULT_SPEC", "not-a-point", 1);
            FaultInjector::global();
        },
        ::testing::ExitedWithCode(2), "EV8_FAULT_SPEC");
}

TEST(FaultInjectorDeathTest, DieFaultKillsTheProcess)
{
    EXPECT_EXIT(
        {
            FaultInjector faults("die/=k+*");
            faults.maybeKill("k");
        },
        ::testing::KilledBySignal(SIGKILL), "injected die at k");
}

} // namespace
} // namespace ev8

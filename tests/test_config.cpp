// Tests for the INI reader and scenario loader.
#include <gtest/gtest.h>

#include <fstream>

#include "config/ini.hpp"
#include "config/scenario.hpp"
#include "stats/rng.hpp"

namespace shears::config {
namespace {

TEST(Ini, ParsesSectionsKeysAndComments) {
  const IniFile ini = IniFile::parse_string(
      "top = 1\n"
      "# comment line\n"
      "[alpha]\n"
      "key = value with spaces   ; trailing comment\n"
      "num=42\n"
      "\n"
      "[Beta]\n"
      "flag = TRUE\n");
  EXPECT_EQ(ini.get_string("", "top", ""), "1");
  EXPECT_EQ(ini.get_string("alpha", "key", ""), "value with spaces");
  EXPECT_EQ(ini.get_int("alpha", "num", 0), 42);
  EXPECT_TRUE(ini.get_bool("beta", "flag", false));  // case-insensitive
}

TEST(Ini, FallbacksWhenAbsent) {
  const IniFile ini = IniFile::parse_string("");
  EXPECT_EQ(ini.get_string("a", "b", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(ini.get_double("a", "b", 2.5), 2.5);
  EXPECT_EQ(ini.get_int("a", "b", -3), -3);
  EXPECT_FALSE(ini.get_bool("a", "b", false));
}

TEST(Ini, RejectsMalformedInput) {
  EXPECT_THROW(IniFile::parse_string("[unclosed\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse_string("no equals sign\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse_string("= novalue\n"), std::runtime_error);
  EXPECT_THROW(IniFile::parse_string("a=1\na=2\n"), std::runtime_error);
}

TEST(Ini, RejectsBadTypedValues) {
  const IniFile ini = IniFile::parse_string("x = 12abc\ny = maybe\n");
  EXPECT_THROW((void)ini.get_double("", "x", 0.0), std::runtime_error);
  EXPECT_THROW((void)ini.get_int("", "x", 0), std::runtime_error);
  EXPECT_THROW((void)ini.get_bool("", "y", false), std::runtime_error);
}

TEST(Ini, ListsSplitOnCommas) {
  const IniFile ini = IniFile::parse_string("l = a, b ,c\nempty =\n");
  const auto list = ini.get_list("", "l");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "a");
  EXPECT_EQ(list[1], "b");
  EXPECT_EQ(list[2], "c");
  EXPECT_TRUE(ini.get_list("", "empty").empty());
  EXPECT_TRUE(ini.get_list("", "missing").empty());
}

TEST(Ini, RequireOnlyFlagsTypos) {
  const IniFile ini = IniFile::parse_string("[fleet]\nprobse = 10\n");
  EXPECT_THROW(ini.require_only({"fleet.probes"}), std::runtime_error);
  EXPECT_NO_THROW(ini.require_only({"fleet.probse"}));
}

TEST(Scenario, DefaultsRoundTrip) {
  // The generated default text must parse back to the default scenario.
  const Scenario s = parse_scenario_string(default_scenario_text());
  const Scenario d;
  EXPECT_EQ(s.fleet.probe_count, d.fleet.probe_count);
  EXPECT_EQ(s.campaign.duration_days, d.campaign.duration_days);
  EXPECT_DOUBLE_EQ(s.model.wireless_latency_scale,
                   d.model.wireless_latency_scale);
  EXPECT_DOUBLE_EQ(s.model.path.fibre_us_per_km, d.model.path.fibre_us_per_km);
  EXPECT_EQ(s.footprint_year, 0);
  EXPECT_TRUE(s.providers.empty());
}

TEST(Scenario, OverridesApply) {
  const Scenario s = parse_scenario_string(
      "name = sweep-5g\n"
      "[fleet]\nprobes = 800\nseed = 9\n"
      "[campaign]\ndays = 12\nuptime = 0.9\n"
      "[model]\nwireless_scale = 0.25\n"
      "[footprint]\nyear = 2016\nproviders = Amazon, Vultr\n");
  EXPECT_EQ(s.name, "sweep-5g");
  EXPECT_EQ(s.fleet.probe_count, 800u);
  EXPECT_EQ(s.campaign.duration_days, 12);
  EXPECT_DOUBLE_EQ(s.campaign.probe_uptime, 0.9);
  EXPECT_DOUBLE_EQ(s.model.wireless_latency_scale, 0.25);
  EXPECT_EQ(s.footprint_year, 2016);
  ASSERT_EQ(s.providers.size(), 2u);
  EXPECT_EQ(s.providers[0], topology::CloudProvider::kAmazon);
  EXPECT_EQ(s.providers[1], topology::CloudProvider::kVultr);
}

TEST(Scenario, FaultAndResilienceKeysApply) {
  const Scenario s = parse_scenario_string(
      "[faults]\nseed = 5\nepoch_ticks = 28\nregion_outage_rate = 0.1\n"
      "route_flap_rate = 0.2\nroute_flap_multiplier = 2.5\n"
      "storm_rate = 0.3\nstorm_wireless_only = false\n"
      "clock_skew_rate = 0.05\nclock_skew_ms = 40\nblackout_rate = 0.01\n"
      "[resilience]\nmax_retries = 3\nbackoff_cap_ticks = 4\n"
      "quarantine = true\nquarantine_window = 8\n"
      "quarantine_loss_threshold = 0.75\nquarantine_cooldown_ticks = 24\n");
  EXPECT_EQ(s.faults.seed, 5u);
  EXPECT_EQ(s.faults.epoch_ticks, 28u);
  EXPECT_DOUBLE_EQ(s.faults.region_outage_rate, 0.1);
  EXPECT_DOUBLE_EQ(s.faults.route_flap_rate, 0.2);
  EXPECT_DOUBLE_EQ(s.faults.route_flap_latency_multiplier, 2.5);
  EXPECT_DOUBLE_EQ(s.faults.storm_rate, 0.3);
  EXPECT_FALSE(s.faults.storm_wireless_only);
  EXPECT_DOUBLE_EQ(s.faults.clock_skew_ms, 40.0);
  EXPECT_EQ(s.campaign.retry.max_retries, 3);
  EXPECT_EQ(s.campaign.retry.backoff_cap_ticks, 4u);
  EXPECT_TRUE(s.campaign.quarantine.enabled);
  EXPECT_EQ(s.campaign.quarantine.window_bursts, 8);
  EXPECT_DOUBLE_EQ(s.campaign.quarantine.loss_threshold, 0.75);
  EXPECT_EQ(s.campaign.quarantine.cooldown_ticks, 24u);
  EXPECT_FALSE(s.make_fault_schedule().empty());
}

TEST(Scenario, DefaultFaultScheduleIsEmpty) {
  const Scenario s = parse_scenario_string("");
  EXPECT_FALSE(s.faults.any_rate());
  EXPECT_TRUE(s.make_fault_schedule().empty());
  EXPECT_EQ(s.campaign.retry.max_retries, 0);
  EXPECT_FALSE(s.campaign.quarantine.enabled);
}

TEST(Scenario, RejectsOutOfRangeFaultAndResilienceValues) {
  EXPECT_THROW(parse_scenario_string("[faults]\nstorm_rate = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(
      parse_scenario_string("[faults]\nroute_flap_multiplier = 0.5\n"),
      std::runtime_error);
  EXPECT_THROW(parse_scenario_string("[resilience]\nmax_retries = -1\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string(
                   "[resilience]\nquarantine = true\nquarantine_window = 1\n"),
               std::runtime_error);
}

TEST(Scenario, MakeRegistryRespectsYearAndProviders) {
  Scenario s;
  s.footprint_year = 2012;
  EXPECT_EQ(s.make_registry().size(),
            topology::CloudRegistry::footprint_as_of(2012).size());
  s.providers = {topology::CloudProvider::kAmazon};
  const auto aws_2012 = s.make_registry();
  EXPECT_GT(aws_2012.size(), 0u);
  for (const topology::CloudRegion* r : aws_2012.regions()) {
    EXPECT_EQ(r->provider, topology::CloudProvider::kAmazon);
    EXPECT_LE(r->launch_year, 2012);
  }
}

TEST(Scenario, RejectsUnknownKeysAndProviders) {
  EXPECT_THROW(parse_scenario_string("[fleet]\nprobse = 10\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("[footprint]\nproviders = Initech\n"),
               std::runtime_error);
  // A retired key is an unknown key, not a silently ignored one.
  EXPECT_THROW(parse_scenario_string("[campaign]\nsampling_cache = true\n"),
               std::runtime_error);
}

TEST(Scenario, RejectsOutOfRangeValues) {
  EXPECT_THROW(parse_scenario_string("[campaign]\ndays = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("[campaign]\nuptime = 1.5\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("[model]\nwireless_scale = 0\n"),
               std::runtime_error);
  EXPECT_THROW(parse_scenario_string("[path]\nfibre_us_per_km = 1.0\n"),
               std::runtime_error);  // faster than light in fibre
}

TEST(Scenario, SnapshotKeysApply) {
  const Scenario s = parse_scenario_string(
      "[snapshot]\n"
      "path = store.snap\n"
      "delta = store.delta\n"
      "mode = mmap\n"
      "lazy = true\n"
      "compact = true\n");
  EXPECT_EQ(s.snapshot.path, "store.snap");
  EXPECT_EQ(s.snapshot.delta, "store.delta");
  EXPECT_EQ(s.snapshot.mode, "mmap");
  EXPECT_TRUE(s.snapshot.lazy);
  EXPECT_TRUE(s.snapshot.compact);

  // Defaults: persistence off, buffered read, eager summaries.
  const Scenario d = parse_scenario_string("");
  EXPECT_TRUE(d.snapshot.path.empty());
  EXPECT_TRUE(d.snapshot.delta.empty());
  EXPECT_EQ(d.snapshot.mode, "read");
  EXPECT_FALSE(d.snapshot.lazy);
  EXPECT_FALSE(d.snapshot.compact);
}

TEST(Scenario, RejectsBadSnapshotConfig) {
  EXPECT_THROW(parse_scenario_string("[snapshot]\nmode = eager\n"),
               std::runtime_error);
  // A delta log without a base snapshot has nothing to key itself to.
  EXPECT_THROW(parse_scenario_string("[snapshot]\ndelta = x.delta\n"),
               std::runtime_error);
}

TEST(Scenario, ShippedScenarioFilesParse) {
  // Every file in scenarios/ must parse and validate.
  const std::string dir = std::string(SHEARS_SOURCE_DIR) + "/scenarios/";
  const char* files[] = {
      "paper_9_months.ini",   "five_g_delivers.ini",
      "cloud_2014.ini",       "hyperscalers_only.ini",
      "stress_noisy_network.ini", "faulted_9_months.ini",
  };
  for (const char* file : files) {
    std::ifstream in(dir + file);
    ASSERT_TRUE(in.good()) << dir + file;
    EXPECT_NO_THROW({
      const Scenario s = parse_scenario(in);
      EXPECT_FALSE(s.make_registry().empty()) << file;
    }) << file;
  }
}

TEST(Ini, FuzzNeverCrashesOnlyThrows) {
  // Random byte soup must either parse or throw -- never crash or hang.
  stats::Xoshiro256 rng(4242);
  const char alphabet[] = "ab[]=#; \t\n0123.j{}\"'%";
  for (int trial = 0; trial < 500; ++trial) {
    std::string text;
    const std::size_t len = rng.bounded(200);
    for (std::size_t i = 0; i < len; ++i) {
      text += alphabet[rng.bounded(sizeof(alphabet) - 1)];
    }
    try {
      const IniFile ini = IniFile::parse_string(text);
      (void)ini.keys();
    } catch (const std::runtime_error&) {
      // expected for malformed soup
    }
  }
}

}  // namespace
}  // namespace shears::config

#include "config/scenario.hpp"

#include <sstream>
#include <stdexcept>

#include "config/ini.hpp"

namespace shears::config {

namespace {

const std::set<std::string>& allowed_keys() {
  static const std::set<std::string> keys = {
      "name",
      "fleet.probes", "fleet.seed", "fleet.tagged_fraction",
      "fleet.privileged_fraction",
      "campaign.days", "campaign.interval_hours", "campaign.packets",
      "campaign.targets_per_tick", "campaign.uptime", "campaign.seed",
      "campaign.threads",
      "model.wireless_scale", "model.excess_fraction", "model.excess_spread",
      "model.spike_probability", "model.core_loss_rate",
      "model.diurnal_amplitude", "model.diurnal_peak_hour",
      "path.fibre_us_per_km", "path.long_haul_stretch", "path.min_routed_km",
      "path.per_hop_ms",
      "faults.seed", "faults.epoch_ticks",
      "faults.region_outage_rate", "faults.region_outage_mean_ticks",
      "faults.route_flap_rate", "faults.route_flap_mean_ticks",
      "faults.route_flap_multiplier", "faults.route_flap_extra_loss",
      "faults.storm_rate", "faults.storm_mean_ticks",
      "faults.storm_load_multiplier", "faults.storm_wireless_only",
      "faults.probe_hang_rate", "faults.probe_hang_mean_ticks",
      "faults.clock_skew_rate", "faults.clock_skew_mean_ticks",
      "faults.clock_skew_ms",
      "faults.blackout_rate", "faults.blackout_mean_ticks",
      "resilience.max_retries", "resilience.backoff_cap_ticks",
      "resilience.quarantine", "resilience.quarantine_window",
      "resilience.quarantine_loss_threshold",
      "resilience.quarantine_cooldown_ticks",
      "traffic.arrival", "traffic.clients", "traffic.offered_qps",
      "traffic.think_time_us", "traffic.zipf_exponent", "traffic.duration_us",
      "traffic.slo_ms", "traffic.seed", "traffic.deadline_us",
      "traffic.max_retries", "traffic.backoff_base_us",
      "traffic.backoff_cap_us", "traffic.jitter_fraction",
      "traffic.queue_capacity", "traffic.client_rate_qps",
      "traffic.client_burst", "traffic.max_batch", "traffic.batch_linger_us",
      "traffic.batch_overhead_us", "traffic.per_query_us",
      "snapshot.path", "snapshot.delta", "snapshot.mode", "snapshot.lazy",
      "snapshot.compact",
      "optimizer.threshold_ms", "optimizer.max_sites",
      "optimizer.swap_passes", "optimizer.wireless_scale",
      "optimizer.route_scale", "optimizer.placements",
      "optimizer.max_cities_per_country",
      "optimizer.min_metro_population_m",
      "footprint.year", "footprint.providers",
  };
  return keys;
}

void check_range(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error("scenario: " + what + " out of range");
}

}  // namespace

topology::CloudRegistry Scenario::make_registry() const {
  if (!providers.empty()) {
    // Provider subset first; then intersect with the year snapshot.
    if (footprint_year == 0) {
      return topology::CloudRegistry::for_providers(providers);
    }
    std::vector<const topology::CloudRegion*> regions;
    for (const topology::CloudRegion& r : topology::all_regions()) {
      if (r.launch_year > footprint_year) continue;
      for (const topology::CloudProvider p : providers) {
        if (r.provider == p) {
          regions.push_back(&r);
          break;
        }
      }
    }
    return topology::CloudRegistry(std::move(regions));
  }
  return footprint_year == 0
             ? topology::CloudRegistry::campaign_footprint()
             : topology::CloudRegistry::footprint_as_of(footprint_year);
}

faults::FaultSchedule Scenario::make_fault_schedule() const {
  if (!faults.any_rate()) return faults::FaultSchedule{};
  return faults::FaultSchedule(faults);
}

Scenario parse_scenario(std::istream& is) {
  const IniFile ini = IniFile::parse(is);
  ini.require_only(allowed_keys());

  Scenario s;
  s.name = ini.get_string("", "name", s.name);

  s.fleet.probe_count = static_cast<std::size_t>(
      ini.get_int("fleet", "probes",
                  static_cast<long>(s.fleet.probe_count)));
  s.fleet.seed = static_cast<std::uint64_t>(
      ini.get_int("fleet", "seed", static_cast<long>(s.fleet.seed)));
  s.fleet.tagged_fraction =
      ini.get_double("fleet", "tagged_fraction", s.fleet.tagged_fraction);
  s.fleet.privileged_fraction = ini.get_double("fleet", "privileged_fraction",
                                               s.fleet.privileged_fraction);
  check_range(s.fleet.tagged_fraction >= 0.0 && s.fleet.tagged_fraction <= 1.0,
              "fleet.tagged_fraction");
  check_range(
      s.fleet.privileged_fraction >= 0.0 && s.fleet.privileged_fraction <= 1.0,
      "fleet.privileged_fraction");

  s.campaign.duration_days = static_cast<int>(
      ini.get_int("campaign", "days", s.campaign.duration_days));
  s.campaign.interval_hours = static_cast<int>(
      ini.get_int("campaign", "interval_hours", s.campaign.interval_hours));
  s.campaign.packets_per_ping = static_cast<int>(
      ini.get_int("campaign", "packets", s.campaign.packets_per_ping));
  s.campaign.targets_per_tick = static_cast<int>(ini.get_int(
      "campaign", "targets_per_tick", s.campaign.targets_per_tick));
  s.campaign.probe_uptime =
      ini.get_double("campaign", "uptime", s.campaign.probe_uptime);
  s.campaign.seed = static_cast<std::uint64_t>(
      ini.get_int("campaign", "seed", static_cast<long>(s.campaign.seed)));
  s.campaign.threads = static_cast<unsigned>(
      ini.get_int("campaign", "threads", s.campaign.threads));
  check_range(s.campaign.duration_days > 0, "campaign.days");
  check_range(s.campaign.interval_hours > 0 && s.campaign.interval_hours <= 24,
              "campaign.interval_hours");
  check_range(s.campaign.probe_uptime > 0.0 && s.campaign.probe_uptime <= 1.0,
              "campaign.uptime");

  s.model.wireless_latency_scale = ini.get_double(
      "model", "wireless_scale", s.model.wireless_latency_scale);
  s.model.excess_fraction =
      ini.get_double("model", "excess_fraction", s.model.excess_fraction);
  s.model.excess_spread =
      ini.get_double("model", "excess_spread", s.model.excess_spread);
  s.model.spike_probability =
      ini.get_double("model", "spike_probability", s.model.spike_probability);
  s.model.core_loss_rate =
      ini.get_double("model", "core_loss_rate", s.model.core_loss_rate);
  s.model.diurnal_amplitude =
      ini.get_double("model", "diurnal_amplitude", s.model.diurnal_amplitude);
  s.model.diurnal_peak_hour =
      ini.get_double("model", "diurnal_peak_hour", s.model.diurnal_peak_hour);
  check_range(s.model.wireless_latency_scale > 0.0, "model.wireless_scale");
  check_range(s.model.core_loss_rate >= 0.0 && s.model.core_loss_rate < 1.0,
              "model.core_loss_rate");

  s.model.path.fibre_us_per_km = ini.get_double(
      "path", "fibre_us_per_km", s.model.path.fibre_us_per_km);
  s.model.path.long_haul_stretch = ini.get_double(
      "path", "long_haul_stretch", s.model.path.long_haul_stretch);
  s.model.path.min_routed_km =
      ini.get_double("path", "min_routed_km", s.model.path.min_routed_km);
  s.model.path.per_hop_ms =
      ini.get_double("path", "per_hop_ms", s.model.path.per_hop_ms);
  check_range(s.model.path.fibre_us_per_km > 3.3, "path.fibre_us_per_km");

  s.faults.seed = static_cast<std::uint64_t>(
      ini.get_int("faults", "seed", static_cast<long>(s.faults.seed)));
  s.faults.epoch_ticks = static_cast<std::uint32_t>(ini.get_int(
      "faults", "epoch_ticks", static_cast<long>(s.faults.epoch_ticks)));
  s.faults.region_outage_rate = ini.get_double(
      "faults", "region_outage_rate", s.faults.region_outage_rate);
  s.faults.region_outage_mean_ticks = ini.get_double(
      "faults", "region_outage_mean_ticks", s.faults.region_outage_mean_ticks);
  s.faults.route_flap_rate =
      ini.get_double("faults", "route_flap_rate", s.faults.route_flap_rate);
  s.faults.route_flap_mean_ticks = ini.get_double(
      "faults", "route_flap_mean_ticks", s.faults.route_flap_mean_ticks);
  s.faults.route_flap_latency_multiplier =
      ini.get_double("faults", "route_flap_multiplier",
                     s.faults.route_flap_latency_multiplier);
  s.faults.route_flap_extra_loss = ini.get_double(
      "faults", "route_flap_extra_loss", s.faults.route_flap_extra_loss);
  s.faults.storm_rate =
      ini.get_double("faults", "storm_rate", s.faults.storm_rate);
  s.faults.storm_mean_ticks =
      ini.get_double("faults", "storm_mean_ticks", s.faults.storm_mean_ticks);
  s.faults.storm_load_multiplier = ini.get_double(
      "faults", "storm_load_multiplier", s.faults.storm_load_multiplier);
  s.faults.storm_wireless_only = ini.get_bool(
      "faults", "storm_wireless_only", s.faults.storm_wireless_only);
  s.faults.probe_hang_rate =
      ini.get_double("faults", "probe_hang_rate", s.faults.probe_hang_rate);
  s.faults.probe_hang_mean_ticks = ini.get_double(
      "faults", "probe_hang_mean_ticks", s.faults.probe_hang_mean_ticks);
  s.faults.clock_skew_rate =
      ini.get_double("faults", "clock_skew_rate", s.faults.clock_skew_rate);
  s.faults.clock_skew_mean_ticks = ini.get_double(
      "faults", "clock_skew_mean_ticks", s.faults.clock_skew_mean_ticks);
  s.faults.clock_skew_ms =
      ini.get_double("faults", "clock_skew_ms", s.faults.clock_skew_ms);
  s.faults.blackout_rate =
      ini.get_double("faults", "blackout_rate", s.faults.blackout_rate);
  s.faults.blackout_mean_ticks = ini.get_double(
      "faults", "blackout_mean_ticks", s.faults.blackout_mean_ticks);
  try {
    s.faults.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }

  s.campaign.retry.max_retries = static_cast<int>(ini.get_int(
      "resilience", "max_retries", s.campaign.retry.max_retries));
  s.campaign.retry.backoff_cap_ticks = static_cast<std::uint32_t>(
      ini.get_int("resilience", "backoff_cap_ticks",
                  static_cast<long>(s.campaign.retry.backoff_cap_ticks)));
  s.campaign.quarantine.enabled = ini.get_bool(
      "resilience", "quarantine", s.campaign.quarantine.enabled);
  s.campaign.quarantine.window_bursts = static_cast<int>(
      ini.get_int("resilience", "quarantine_window",
                  s.campaign.quarantine.window_bursts));
  s.campaign.quarantine.loss_threshold =
      ini.get_double("resilience", "quarantine_loss_threshold",
                     s.campaign.quarantine.loss_threshold);
  s.campaign.quarantine.cooldown_ticks = static_cast<std::uint32_t>(
      ini.get_int("resilience", "quarantine_cooldown_ticks",
                  static_cast<long>(s.campaign.quarantine.cooldown_ticks)));
  try {
    s.campaign.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }

  const std::string arrival = ini.get_string(
      "traffic", "arrival", std::string(front::to_string(s.traffic.arrival)));
  const auto mode = front::arrival_from_string(arrival);
  if (!mode) {
    throw std::runtime_error("scenario: unknown traffic.arrival '" + arrival +
                             "' (open|closed)");
  }
  s.traffic.arrival = *mode;
  s.traffic.clients = static_cast<std::uint32_t>(ini.get_int(
      "traffic", "clients", static_cast<long>(s.traffic.clients)));
  s.traffic.offered_qps = static_cast<std::uint32_t>(ini.get_int(
      "traffic", "offered_qps", static_cast<long>(s.traffic.offered_qps)));
  s.traffic.think_time_us = static_cast<front::SimTime>(ini.get_int(
      "traffic", "think_time_us", static_cast<long>(s.traffic.think_time_us)));
  s.traffic.zipf_exponent =
      ini.get_double("traffic", "zipf_exponent", s.traffic.zipf_exponent);
  s.traffic.duration_us = static_cast<front::SimTime>(ini.get_int(
      "traffic", "duration_us", static_cast<long>(s.traffic.duration_us)));
  s.traffic.slo_ms = ini.get_double("traffic", "slo_ms", s.traffic.slo_ms);
  s.traffic.seed = static_cast<std::uint64_t>(
      ini.get_int("traffic", "seed", static_cast<long>(s.traffic.seed)));
  s.traffic.client.deadline_us = static_cast<front::SimTime>(
      ini.get_int("traffic", "deadline_us",
                  static_cast<long>(s.traffic.client.deadline_us)));
  s.traffic.client.max_retries = static_cast<int>(ini.get_int(
      "traffic", "max_retries", s.traffic.client.max_retries));
  s.traffic.client.backoff_base_us = static_cast<front::SimTime>(
      ini.get_int("traffic", "backoff_base_us",
                  static_cast<long>(s.traffic.client.backoff_base_us)));
  s.traffic.client.backoff_cap_us = static_cast<front::SimTime>(
      ini.get_int("traffic", "backoff_cap_us",
                  static_cast<long>(s.traffic.client.backoff_cap_us)));
  s.traffic.client.jitter_fraction = ini.get_double(
      "traffic", "jitter_fraction", s.traffic.client.jitter_fraction);
  s.front.queue_capacity = static_cast<std::size_t>(ini.get_int(
      "traffic", "queue_capacity", static_cast<long>(s.front.queue_capacity)));
  s.front.client_rate_qps = static_cast<std::uint32_t>(
      ini.get_int("traffic", "client_rate_qps",
                  static_cast<long>(s.front.client_rate_qps)));
  s.front.client_burst = static_cast<std::uint32_t>(ini.get_int(
      "traffic", "client_burst", static_cast<long>(s.front.client_burst)));
  s.front.max_batch = static_cast<std::size_t>(ini.get_int(
      "traffic", "max_batch", static_cast<long>(s.front.max_batch)));
  s.front.batch_linger_us = static_cast<front::SimTime>(
      ini.get_int("traffic", "batch_linger_us",
                  static_cast<long>(s.front.batch_linger_us)));
  s.front.batch_overhead_us = static_cast<front::SimTime>(
      ini.get_int("traffic", "batch_overhead_us",
                  static_cast<long>(s.front.batch_overhead_us)));
  s.front.per_query_us = static_cast<front::SimTime>(ini.get_int(
      "traffic", "per_query_us", static_cast<long>(s.front.per_query_us)));
  try {
    s.front.validate();
    s.traffic.validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("scenario: ") + e.what());
  }

  s.snapshot.path = ini.get_string("snapshot", "path", s.snapshot.path);
  s.snapshot.delta = ini.get_string("snapshot", "delta", s.snapshot.delta);
  s.snapshot.mode = ini.get_string("snapshot", "mode", s.snapshot.mode);
  s.snapshot.lazy = ini.get_bool("snapshot", "lazy", s.snapshot.lazy);
  s.snapshot.compact =
      ini.get_bool("snapshot", "compact", s.snapshot.compact);
  if (s.snapshot.mode != "read" && s.snapshot.mode != "mmap") {
    throw std::runtime_error("scenario: unknown snapshot.mode '" +
                             s.snapshot.mode + "' (read|mmap)");
  }
  if (s.snapshot.path.empty() && !s.snapshot.delta.empty()) {
    throw std::runtime_error(
        "scenario: snapshot.delta requires snapshot.path (the log is keyed "
        "to a base snapshot)");
  }

  s.optimizer.threshold_ms = ini.get_double("optimizer", "threshold_ms",
                                            s.optimizer.threshold_ms);
  s.optimizer.max_sites = static_cast<int>(ini.get_int(
      "optimizer", "max_sites", static_cast<long>(s.optimizer.max_sites)));
  s.optimizer.swap_passes = static_cast<int>(ini.get_int(
      "optimizer", "swap_passes", static_cast<long>(s.optimizer.swap_passes)));
  s.optimizer.wireless_scale = ini.get_double("optimizer", "wireless_scale",
                                              s.optimizer.wireless_scale);
  s.optimizer.route_scale =
      ini.get_double("optimizer", "route_scale", s.optimizer.route_scale);
  s.optimizer.placements = ini.get_list("optimizer", "placements");
  s.optimizer.max_cities_per_country = static_cast<int>(
      ini.get_int("optimizer", "max_cities_per_country",
                  static_cast<long>(s.optimizer.max_cities_per_country)));
  s.optimizer.min_metro_population_m =
      ini.get_double("optimizer", "min_metro_population_m",
                     s.optimizer.min_metro_population_m);
  check_range(s.optimizer.threshold_ms > 0.0, "optimizer.threshold_ms");
  check_range(s.optimizer.max_sites >= 0, "optimizer.max_sites");
  check_range(s.optimizer.swap_passes >= 0, "optimizer.swap_passes");
  check_range(s.optimizer.wireless_scale > 0.0, "optimizer.wireless_scale");
  check_range(s.optimizer.route_scale > 0.0, "optimizer.route_scale");
  check_range(s.optimizer.max_cities_per_country >= 0,
              "optimizer.max_cities_per_country");
  check_range(s.optimizer.min_metro_population_m >= 0.0,
              "optimizer.min_metro_population_m");
  for (const std::string& p : s.optimizer.placements) {
    // Names match edge::to_string(EdgePlacement); literal here because
    // config stays below the opt/edge layers (same rule as snapshot.mode).
    if (p != "basestation" && p != "central-office" && p != "metro-pop" &&
        p != "regional-site") {
      throw std::runtime_error("scenario: unknown optimizer placement '" + p +
                               "'");
    }
  }

  s.footprint_year =
      static_cast<int>(ini.get_int("footprint", "year", s.footprint_year));
  for (const std::string& name : ini.get_list("footprint", "providers")) {
    const auto provider = topology::provider_from_string(name);
    if (!provider) {
      throw std::runtime_error("scenario: unknown provider '" + name + "'");
    }
    s.providers.push_back(*provider);
  }
  return s;
}

Scenario parse_scenario_string(const std::string& text) {
  std::istringstream is(text);
  return parse_scenario(is);
}

std::string default_scenario_text() {
  const Scenario s;
  std::ostringstream out;
  out << "# latency-shears scenario file (all keys optional)\n"
      << "name = default\n\n"
      << "[fleet]\n"
      << "probes = " << s.fleet.probe_count << "\n"
      << "seed = " << s.fleet.seed << "\n"
      << "tagged_fraction = " << s.fleet.tagged_fraction << "\n"
      << "privileged_fraction = " << s.fleet.privileged_fraction << "\n\n"
      << "[campaign]\n"
      << "days = " << s.campaign.duration_days << "\n"
      << "interval_hours = " << s.campaign.interval_hours << "\n"
      << "packets = " << s.campaign.packets_per_ping << "\n"
      << "targets_per_tick = " << s.campaign.targets_per_tick << "\n"
      << "uptime = " << s.campaign.probe_uptime << "\n"
      << "seed = " << s.campaign.seed << "\n"
      << "threads = " << s.campaign.threads << "  ; 0 = hardware\n\n"
      << "[model]\n"
      << "wireless_scale = " << s.model.wireless_latency_scale
      << "  ; <1 = the 5G what-if\n"
      << "excess_fraction = " << s.model.excess_fraction << "\n"
      << "excess_spread = " << s.model.excess_spread << "\n"
      << "spike_probability = " << s.model.spike_probability << "\n"
      << "core_loss_rate = " << s.model.core_loss_rate << "\n"
      << "diurnal_amplitude = " << s.model.diurnal_amplitude << "\n"
      << "diurnal_peak_hour = " << s.model.diurnal_peak_hour << "\n\n"
      << "[path]\n"
      << "fibre_us_per_km = " << s.model.path.fibre_us_per_km << "\n"
      << "long_haul_stretch = " << s.model.path.long_haul_stretch << "\n"
      << "min_routed_km = " << s.model.path.min_routed_km << "\n"
      << "per_hop_ms = " << s.model.path.per_hop_ms << "\n\n"
      << "[faults]\n"
      << "# All rates default to 0 — no faults. Rates are per (entity,\n"
      << "# epoch) activation probabilities; see scenarios/faulted_9_months"
         ".ini\n"
      << "seed = " << s.faults.seed << "\n"
      << "epoch_ticks = " << s.faults.epoch_ticks
      << "  ; one week of 3 h ticks\n"
      << "region_outage_rate = " << s.faults.region_outage_rate << "\n"
      << "route_flap_rate = " << s.faults.route_flap_rate << "\n"
      << "storm_rate = " << s.faults.storm_rate << "\n"
      << "probe_hang_rate = " << s.faults.probe_hang_rate << "\n"
      << "clock_skew_rate = " << s.faults.clock_skew_rate << "\n"
      << "blackout_rate = " << s.faults.blackout_rate << "\n\n"
      << "[resilience]\n"
      << "max_retries = " << s.campaign.retry.max_retries
      << "  ; 0 = no retries\n"
      << "backoff_cap_ticks = " << s.campaign.retry.backoff_cap_ticks << "\n"
      << "quarantine = " << (s.campaign.quarantine.enabled ? "true" : "false")
      << "\n"
      << "quarantine_window = " << s.campaign.quarantine.window_bursts << "\n"
      << "quarantine_loss_threshold = "
      << s.campaign.quarantine.loss_threshold << "\n"
      << "quarantine_cooldown_ticks = "
      << s.campaign.quarantine.cooldown_ticks << "\n\n"
      << "[traffic]\n"
      << "# Serving front-end session over the post-campaign oracle; see\n"
      << "# scenarios/serving_peak_load.ini for an overload study\n"
      << "arrival = " << front::to_string(s.traffic.arrival)
      << "  ; open | closed\n"
      << "clients = " << s.traffic.clients << "\n"
      << "offered_qps = " << s.traffic.offered_qps << "\n"
      << "think_time_us = " << s.traffic.think_time_us << "\n"
      << "zipf_exponent = " << s.traffic.zipf_exponent << "\n"
      << "duration_us = " << s.traffic.duration_us << "\n"
      << "slo_ms = " << s.traffic.slo_ms << "\n"
      << "seed = " << s.traffic.seed << "\n"
      << "deadline_us = " << s.traffic.client.deadline_us
      << "  ; 0 = none\n"
      << "max_retries = " << s.traffic.client.max_retries << "\n"
      << "backoff_base_us = " << s.traffic.client.backoff_base_us << "\n"
      << "backoff_cap_us = " << s.traffic.client.backoff_cap_us << "\n"
      << "jitter_fraction = " << s.traffic.client.jitter_fraction << "\n"
      << "queue_capacity = " << s.front.queue_capacity << "\n"
      << "client_rate_qps = " << s.front.client_rate_qps
      << "  ; 0 = unlimited\n"
      << "client_burst = " << s.front.client_burst << "\n"
      << "max_batch = " << s.front.max_batch << "\n"
      << "batch_linger_us = " << s.front.batch_linger_us << "\n"
      << "batch_overhead_us = " << s.front.batch_overhead_us << "\n"
      << "per_query_us = " << s.front.per_query_us << "\n\n"
      << "[snapshot]\n"
      << "# Store persistence (examples/store_snapshot): save the built\n"
      << "# store to `path`, or load it back instead of replaying the\n"
      << "# campaign; `delta` adds an append-only log for incremental\n"
      << "# ingest on top of the base.\n"
      << "# path = store.snap\n"
      << "# delta = store.delta\n"
      << "mode = " << s.snapshot.mode << "  ; read | mmap\n"
      << "lazy = " << (s.snapshot.lazy ? "true" : "false")
      << "  ; defer summary rebuild to first use\n"
      << "compact = " << (s.snapshot.compact ? "true" : "false")
      << "  ; fold the delta log into the base\n\n"
      << "[optimizer]\n"
      << "# Footprint placement search (examples/footprint_planner): pick\n"
      << "# the edge sites that maximise population-weighted coverage at\n"
      << "# threshold_ms; see scenarios/footprint_search.ini\n"
      << "threshold_ms = " << s.optimizer.threshold_ms << "\n"
      << "max_sites = " << s.optimizer.max_sites << "\n"
      << "swap_passes = " << s.optimizer.swap_passes << "\n"
      << "wireless_scale = " << s.optimizer.wireless_scale
      << "  ; <1 = search under the 5G what-if\n"
      << "route_scale = " << s.optimizer.route_scale << "\n"
      << "# placements = metro-pop, regional-site\n"
      << "max_cities_per_country = " << s.optimizer.max_cities_per_country
      << "\n"
      << "min_metro_population_m = " << s.optimizer.min_metro_population_m
      << "\n\n"
      << "[footprint]\n"
      << "year = 0        ; 0 = full 2019/2020 footprint\n"
      << "# providers = Amazon, Google   ; default: all seven\n";
  return out.str();
}

}  // namespace shears::config

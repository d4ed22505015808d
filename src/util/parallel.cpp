#include "util/parallel.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <limits>
#include <string_view>
#include <thread>
#include <type_traits>

#include "util/fault_injector.h"

namespace xtest::util {

namespace {

unsigned env_threads() {
  const char* raw = std::getenv("XTEST_THREADS");
  if (raw == nullptr || *raw == '\0') return 0;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0') return 0;
  return static_cast<unsigned>(v);
}

}  // namespace

unsigned ParallelConfig::resolve(std::size_t items) const {
  if (items == 0) return 1;  // nothing to fan out, stay on the caller
  unsigned t = threads;
  if (t == 0) t = env_threads();
  if (t == 0) t = std::thread::hardware_concurrency();
  if (t == 0) t = 1;
  if (t > items) t = static_cast<unsigned>(items);
  return t;
}

std::vector<std::pair<std::size_t, std::size_t>> partition_range(
    std::size_t count, unsigned chunks) {
  if (chunks == 0) chunks = 1;
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(chunks);
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  std::size_t begin = 0;
  for (unsigned w = 0; w < chunks; ++w) {
    const std::size_t len = base + (w < extra ? 1 : 0);
    out.emplace_back(begin, begin + len);
    begin += len;
  }
  return out;
}

void parallel_for_chunks(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, std::size_t, unsigned)>& body) {
  const unsigned workers = config.resolve(count);
  if (workers == 1) {
    body(0, count, 0);
    return;
  }
  const auto chunks = partition_range(count, workers);
  std::vector<std::exception_ptr> errors(workers);
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      try {
        body(chunks[w].first, chunks[w].second, w);
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

std::vector<ItemError> parallel_for_items(
    std::size_t count, const ParallelConfig& config,
    const std::function<void(std::size_t, unsigned)>& body) {
  std::vector<std::vector<ItemError>> per_worker(config.resolve(count));
  parallel_for_chunks(
      count, config, [&](std::size_t begin, std::size_t end, unsigned w) {
        for (std::size_t i = begin; i < end; ++i) {
          try {
            FaultInjector::global().maybe_fail("parallel.item");
            body(i, w);
          } catch (const std::exception& e) {
            per_worker[w].push_back({i, e.what()});
          } catch (...) {
            per_worker[w].push_back({i, "unknown exception"});
          }
        }
      });
  std::vector<ItemError> errors;
  for (std::vector<ItemError>& v : per_worker)
    errors.insert(errors.end(), std::make_move_iterator(v.begin()),
                  std::make_move_iterator(v.end()));
  return errors;
}

const char* build_type() {
#ifdef XTEST_BUILD_TYPE
  return XTEST_BUILD_TYPE;
#else
  return "unknown";
#endif
}

namespace {

/// The one list of the counters json(), merge_from() and
/// parse_stats_json() carry, in JSON order: f(key, member).  json() adds
/// the environment after "threads" and the rate after "wall_seconds".
template <typename F>
void for_each_counter(F&& f) {
  f("threads", &CampaignStats::threads);
  f("defects", &CampaignStats::defects_simulated);
  f("simulated_cycles", &CampaignStats::simulated_cycles);
  f("gold_prefix_cycles", &CampaignStats::gold_prefix_cycles);
  f("trajectories", &CampaignStats::trajectories);
  f("stepped_cycles", &CampaignStats::stepped_cycles);
  f("wall_seconds", &CampaignStats::wall_seconds);
  f("library_seconds", &CampaignStats::library_seconds);
  f("program_seconds", &CampaignStats::program_seconds);
  f("gold_seconds", &CampaignStats::gold_seconds);
  f("simulate_seconds", &CampaignStats::simulate_seconds);
  f("checkpoint_seconds", &CampaignStats::checkpoint_seconds);
  f("detected", &CampaignStats::detected);
  f("detected_by_timeout", &CampaignStats::detected_by_timeout);
  f("undetected", &CampaignStats::undetected);
  f("sim_errors", &CampaignStats::sim_errors);
  f("retries", &CampaignStats::retries);
  f("restored_from_checkpoint", &CampaignStats::restored_from_checkpoint);
  f("salvaged_sections", &CampaignStats::salvaged_sections);
  f("dropped_slots", &CampaignStats::dropped_slots);
  f("flush_failures", &CampaignStats::flush_failures);
  f("online_rounds", &CampaignStats::online_rounds);
  f("online_mmio_heartbeats", &CampaignStats::online_mmio_heartbeats);
  f("online_deadlines_late", &CampaignStats::online_deadlines_late);
  f("online_deadlines_missed", &CampaignStats::online_deadlines_missed);
  f("online_detection_latency_cycles",
    &CampaignStats::online_detection_latency_cycles);
  f("online_latency_samples", &CampaignStats::online_latency_samples);
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// Extracts `"key":<number>` from a flat JSON object; false if absent.
/// A key that is present but undecodable -- no digits after the colon, a
/// non-finite value, or a second occurrence disagreeing with the first --
/// is damage, not absence, and throws the typed error.
bool json_number(const std::string& obj, const char* key, double& out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t pos = obj.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = obj.c_str() + pos + needle.size();
  char* end = nullptr;
  out = std::strtod(start, &end);
  if (end == start)
    throw StatsJsonError(std::string("stats json: unparsable value for \"") +
                         key + "\"");
  if (!std::isfinite(out))
    throw StatsJsonError(std::string("stats json: non-finite value for \"") +
                         key + "\"");
  const std::size_t dup = obj.find(needle, pos + needle.size());
  if (dup != std::string::npos) {
    const char* dstart = obj.c_str() + dup + needle.size();
    char* dend = nullptr;
    const double dv = std::strtod(dstart, &dend);
    if (dend == dstart || dv != out)
      throw StatsJsonError(std::string("stats json: duplicate key \"") + key +
                           "\" with conflicting values");
  }
  return true;
}

}  // namespace

std::string CampaignStats::json(const std::string& label) const {
  std::string out = "{\"campaign\":\"" + label + "\"";
  for_each_counter([&](const char* key, auto member) {
    const auto v = this->*member;
    out += ",\"" + std::string(key) + "\":";
    if constexpr (std::is_floating_point_v<decltype(v)>)
      out += fixed(v, 6);
    else
      out += std::to_string(v);
    if (std::string_view(key) == "threads")
      out += ",\"hardware_concurrency\":" +
             std::to_string(std::thread::hardware_concurrency()) +
             ",\"build_type\":\"" + build_type() + "\"";
    else if (std::string_view(key) == "wall_seconds")
      out += ",\"defects_per_second\":" + fixed(defects_per_second(), 1);
  });
  return out + "}";
}

void CampaignStats::merge_from(const CampaignStats& other) {
  for_each_counter([&](const char* key, auto member) {
    this->*member = std::string_view(key) == "threads"
                        ? std::max(this->*member, other.*member)
                        : this->*member + other.*member;
  });
  error_log.insert(error_log.end(), other.error_log.begin(),
                   other.error_log.end());
}

bool parse_stats_json(const std::string& line, CampaignStats& out) {
  const std::size_t open = line.find('{');
  const std::size_t close = line.rfind('}');
  if (open == std::string::npos) return false;
  if (close == std::string::npos || close < open)
    throw StatsJsonError("stats json: truncated object (no closing '}')");
  const std::string obj = line.substr(open, close - open + 1);
  bool any = false;
  for_each_counter([&](const char* key, auto member) {
    using T = std::decay_t<decltype(out.*member)>;
    double v = 0.0;
    if (!json_number(obj, key, v)) return;
    // An integer counter takes a whole number its type can hold; casting
    // anything else would be undefined behaviour, not a value.
    if constexpr (std::is_integral_v<T>) {
      if (v < 0.0 || v != std::floor(v) ||
          v >= std::ldexp(1.0, std::numeric_limits<T>::digits))
        throw StatsJsonError(
            std::string("stats json: value out of range for \"") + key +
            "\"");
    }
    out.*member = static_cast<T>(v);
    any = true;
  });
  return any;
}

}  // namespace xtest::util

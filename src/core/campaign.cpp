#include "core/campaign.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "io/atomic_file.hpp"
#include "io/json.hpp"
#include "io/json_reader.hpp"
#include "io/snapshot_io.hpp"
#include "pp/trial.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace ppk::core {

std::uint32_t CampaignResult::completed_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.censored ? 0u : 1u;
  return count;
}

std::uint32_t CampaignResult::retried_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.retries > 0 ? 1u : 0u;
  return count;
}

std::uint32_t CampaignResult::failed_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.failed ? 1u : 0u;
  return count;
}

std::uint32_t CampaignResult::censored_count() const {
  std::uint32_t count = 0;
  for (const auto& t : trials) count += t.censored ? 1u : 0u;
  return count;
}

namespace {

using pp::Counts;

/// Sub-stream of a trial's seed that seeds retry attempt r (offset by r),
/// keeping retries independent of the original attempt yet pure functions
/// of (master_seed, trial, retry).
constexpr std::uint64_t kRetryStream = 0x7265'7472ULL;  // "retr"

/// Largest log2-histogram bucket index accepted from a checkpoint file; a
/// sub_bits = 8 histogram over the full uint64 range stays well below it.
constexpr std::uint64_t kMaxLogBucket = 1ULL << 16;

/// Interaction budget of retry attempt `retry`: the base budget scaled by
/// backoff^retry, saturating at UINT64_MAX.  Double arithmetic is IEEE-
/// deterministic, so every process computes identical budgets.
std::uint64_t attempt_budget(std::uint64_t base, double backoff,
                             std::uint32_t retry) {
  double budget = static_cast<double>(base);
  for (std::uint32_t i = 0; i < retry; ++i) budget *= backoff;
  if (budget >= 1.8e19) return UINT64_MAX;
  return static_cast<std::uint64_t>(budget);
}

// --- metrics registry (de)serialization ------------------------------------
//
// The registry's own write_json emits bucket *bounds* (doubles) for human
// consumption; exact restoration needs bucket *indices*, so checkpoints
// carry their own registry encoding: counters and gauges as exact integer
// tokens, histograms as (layout parameters, [bucket index, count] pairs).

void write_registry(io::JsonWriter& json, const obs::MetricsRegistry& reg) {
  json.begin_object();
  json.key("counters");
  json.begin_object();
  for (const auto& [name, c] : reg.counters()) json.member(name, c.value());
  json.end_object();
  json.key("gauges");
  json.begin_object();
  for (const auto& [name, g] : reg.gauges()) {
    json.key(name);
    json.begin_object();
    json.member("set", g.present());
    json.member("value", static_cast<std::int64_t>(g.value()));
    json.end_object();
  }
  json.end_object();
  json.key("histograms");
  json.begin_object();
  for (const auto& [name, h] : reg.histograms()) {
    json.key(name);
    json.begin_object();
    if (h.layout() == obs::Histogram::Layout::kLinear) {
      json.member("layout", "linear");
      json.member("lo", h.linear_lo());
      json.member("hi", h.linear_hi());
      json.member("nbuckets", static_cast<std::uint64_t>(h.counts().size()));
    } else {
      json.member("layout", "log2");
      json.member("sub_bits", h.sub_bits());
    }
    json.key("buckets");
    json.begin_array();
    const auto& counts = h.counts();
    for (std::size_t b = 0; b < counts.size(); ++b) {
      if (counts[b] == 0) continue;
      json.begin_array();
      json.value(static_cast<std::uint64_t>(b));
      json.value(counts[b]);
      json.end_array();
    }
    json.end_array();
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

bool read_registry(const io::JsonValue& v, obs::MetricsRegistry* reg,
                   std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = "metrics: " + reason;
    return false;
  };
  if (!v.is_object()) return fail("not an object");
  const io::JsonValue* counters = v.find("counters");
  const io::JsonValue* gauges = v.find("gauges");
  const io::JsonValue* histograms = v.find("histograms");
  if (counters == nullptr || !counters->is_object() || gauges == nullptr ||
      !gauges->is_object() || histograms == nullptr ||
      !histograms->is_object()) {
    return fail("missing section");
  }
  for (std::size_t i = 0; i < counters->keys.size(); ++i) {
    const auto value = counters->items[i].as_u64();
    if (!value) return fail("bad counter " + counters->keys[i]);
    reg->counter(counters->keys[i]).inc(*value);
  }
  for (std::size_t i = 0; i < gauges->keys.size(); ++i) {
    const io::JsonValue& g = gauges->items[i];
    const io::JsonValue* set = g.find("set");
    const io::JsonValue* value = g.find("value");
    if (set == nullptr || !set->is_bool() || value == nullptr) {
      return fail("bad gauge " + gauges->keys[i]);
    }
    const auto v64 = value->as_i64();
    if (!v64) return fail("bad gauge value " + gauges->keys[i]);
    obs::Gauge& gauge = reg->gauge(gauges->keys[i]);
    if (set->as_bool()) gauge.set(*v64);
  }
  for (std::size_t i = 0; i < histograms->keys.size(); ++i) {
    const std::string& name = histograms->keys[i];
    const io::JsonValue& h = histograms->items[i];
    const io::JsonValue* layout = h.find("layout");
    const io::JsonValue* buckets = h.find("buckets");
    if (layout == nullptr || !layout->is_string() || buckets == nullptr ||
        !buckets->is_array()) {
      return fail("bad histogram " + name);
    }
    obs::Histogram* target = nullptr;
    std::uint64_t nbuckets = 0;
    if (layout->as_string() == "linear") {
      const io::JsonValue* lo = h.find("lo");
      const io::JsonValue* hi = h.find("hi");
      const io::JsonValue* nb = h.find("nbuckets");
      const auto lov = lo != nullptr ? lo->as_double() : std::nullopt;
      const auto hiv = hi != nullptr ? hi->as_double() : std::nullopt;
      const auto nbv = nb != nullptr ? nb->as_u64() : std::nullopt;
      if (!lov || !hiv || !nbv) return fail("bad linear layout in " + name);
      const double lo_value = *lov;
      const double hi_value = *hiv;
      const std::uint64_t buckets_n = *nbv;
      if (buckets_n == 0 || buckets_n > kMaxLogBucket ||
          !(hi_value > lo_value)) {
        return fail("bad linear layout in " + name);
      }
      nbuckets = buckets_n;
      target = &reg->histogram(
          name, obs::Histogram::linear(lo_value, hi_value,
                                       static_cast<std::size_t>(buckets_n)));
    } else if (layout->as_string() == "log2") {
      const io::JsonValue* sub = h.find("sub_bits");
      const auto subv = sub != nullptr ? sub->as_u64() : std::nullopt;
      target = &reg->histogram(name);
      if (!subv || *subv != target->sub_bits()) {
        return fail("unsupported log2 sub_bits in " + name);
      }
      nbuckets = kMaxLogBucket;
    } else {
      return fail("unknown layout in " + name);
    }
    for (const io::JsonValue& pair : buckets->items) {
      if (!pair.is_array() || pair.items.size() != 2) {
        return fail("bad bucket in " + name);
      }
      const auto bucket = pair.items[0].as_u64();
      const auto count = pair.items[1].as_u64();
      if (!bucket || !count || *bucket >= nbuckets) {
        return fail("bad bucket in " + name);
      }
      target->add_bucket_count(static_cast<std::size_t>(*bucket), *count);
    }
  }
  return true;
}

// --- trial (de)serialization -----------------------------------------------

void write_marks(io::JsonWriter& json, const std::vector<std::uint64_t>& marks) {
  json.begin_array();
  for (const std::uint64_t mark : marks) json.value(mark);
  json.end_array();
}

bool read_u64_array(const io::JsonValue* v, std::vector<std::uint64_t>* out) {
  if (v == nullptr || !v->is_array()) return false;
  out->clear();
  out->reserve(v->items.size());
  for (const io::JsonValue& item : v->items) {
    const auto value = item.as_u64();
    if (!value) return false;
    out->push_back(*value);
  }
  return true;
}

void write_completed(io::JsonWriter& json, const CompletedTrial& t) {
  json.begin_object();
  json.member("trial", t.trial);
  json.member("interactions", t.data.result.interactions);
  json.member("effective", t.data.result.effective);
  json.member("stabilized", t.data.result.stabilized);
  json.member("timed_out", t.data.result.timed_out);
  json.member("stalled", t.data.result.stalled);
  json.member("failed", t.data.failed);
  json.member("retries", t.data.retries);
  json.key("watch_marks");
  write_marks(json, t.data.result.watch_marks);
  json.end_object();
}

bool read_completed(const io::JsonValue& v, CompletedTrial* out,
                    std::string* error) {
  const auto fail = [&](const char* reason) {
    if (error != nullptr) *error = std::string("completed trial: ") + reason;
    return false;
  };
  const auto u64 = [&](const char* key) {
    const io::JsonValue* f = v.find(key);
    return f != nullptr ? f->as_u64() : std::nullopt;
  };
  const auto boolean = [&](const char* key) -> std::optional<bool> {
    const io::JsonValue* f = v.find(key);
    if (f == nullptr || !f->is_bool()) return std::nullopt;
    return f->as_bool();
  };
  const auto trial = u64("trial");
  const auto interactions = u64("interactions");
  const auto effective = u64("effective");
  const auto retries = u64("retries");
  const auto stabilized = boolean("stabilized");
  const auto timed_out = boolean("timed_out");
  const auto stalled = boolean("stalled");
  const auto failed = boolean("failed");
  if (!trial || *trial > UINT32_MAX || !interactions || !effective ||
      !retries || *retries > UINT32_MAX || !stabilized || !timed_out ||
      !stalled || !failed) {
    return fail("missing or malformed field");
  }
  out->trial = static_cast<std::uint32_t>(*trial);
  out->data.result.interactions = *interactions;
  out->data.result.effective = *effective;
  out->data.result.stabilized = *stabilized;
  out->data.result.timed_out = *timed_out;
  out->data.result.stalled = *stalled;
  out->data.failed = *failed;
  out->data.retries = static_cast<std::uint32_t>(*retries);
  if (!read_u64_array(v.find("watch_marks"), &out->data.result.watch_marks)) {
    return fail("bad watch_marks");
  }
  return true;
}

void write_inflight(io::JsonWriter& json, const InFlightTrial& t) {
  json.begin_object();
  json.member("trial", t.trial);
  json.member("retry", t.retry);
  json.member("consumed", t.consumed);
  json.member("interactions", t.interactions);
  json.member("effective", t.effective);
  json.member("snapshot", io::serialize_snapshot(t.snapshot));
  json.key("oracle");
  write_marks(json, t.oracle_state);
  json.key("counts");
  json.begin_array();
  for (const std::uint32_t c : t.counts) json.value(c);
  json.end_array();
  json.key("watch_marks");
  write_marks(json, t.watch_marks);
  json.key("metrics");
  write_registry(json, t.metrics);
  json.end_object();
}

bool read_inflight(const io::JsonValue& v, InFlightTrial* out,
                   std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = "in-flight trial: " + reason;
    return false;
  };
  const auto u64 = [&](const char* key) {
    const io::JsonValue* f = v.find(key);
    return f != nullptr ? f->as_u64() : std::nullopt;
  };
  const auto trial = u64("trial");
  const auto retry = u64("retry");
  const auto consumed = u64("consumed");
  const auto interactions = u64("interactions");
  const auto effective = u64("effective");
  if (!trial || *trial > UINT32_MAX || !retry || *retry > UINT32_MAX ||
      !consumed || !interactions || !effective) {
    return fail("missing or malformed field");
  }
  out->trial = static_cast<std::uint32_t>(*trial);
  out->retry = static_cast<std::uint32_t>(*retry);
  out->consumed = *consumed;
  out->interactions = *interactions;
  out->effective = *effective;
  const io::JsonValue* snapshot = v.find("snapshot");
  if (snapshot == nullptr || !snapshot->is_string()) {
    return fail("missing snapshot");
  }
  std::string snap_error;
  auto snap = io::parse_snapshot(snapshot->as_string(), &snap_error);
  if (!snap) return fail(snap_error);
  out->snapshot = std::move(*snap);
  if (!read_u64_array(v.find("oracle"), &out->oracle_state)) {
    return fail("bad oracle state");
  }
  std::vector<std::uint64_t> counts;
  if (!read_u64_array(v.find("counts"), &counts)) return fail("bad counts");
  out->counts.clear();
  out->counts.reserve(counts.size());
  for (const std::uint64_t c : counts) {
    if (c > UINT32_MAX) return fail("bad counts");
    out->counts.push_back(static_cast<std::uint32_t>(c));
  }
  if (!read_u64_array(v.find("watch_marks"), &out->watch_marks)) {
    return fail("bad watch_marks");
  }
  const io::JsonValue* metrics = v.find("metrics");
  std::string metrics_error;
  if (metrics == nullptr ||
      !read_registry(*metrics, &out->metrics, &metrics_error)) {
    return fail(metrics_error.empty() ? "missing metrics" : metrics_error);
  }
  return true;
}

// --- the runner ------------------------------------------------------------

struct Shared {
  std::mutex mutex;
  const CampaignOptions* options = nullptr;
  std::string fingerprint;
  std::vector<CampaignTrial> trials;
  std::vector<char> done;
  std::map<std::uint32_t, InFlightTrial> inflight;
  obs::MetricsRegistry merged;
  std::uint32_t events = 0;
  bool halted = false;
  Stopwatch clock;
};

/// True once the campaign should wind down (stop flag or global
/// deadline); latches so every worker agrees.
bool halt_locked(Shared& s) {
  if (s.halted) return true;
  const CampaignOptions& o = *s.options;
  if ((o.stop != nullptr && o.stop->load(std::memory_order_relaxed)) ||
      (o.campaign_deadline_seconds &&
       s.clock.seconds() >= *o.campaign_deadline_seconds)) {
    s.halted = true;
  }
  return s.halted;
}

void write_checkpoint_locked(Shared& s) {
  CampaignCheckpoint ckpt;
  ckpt.fingerprint = s.fingerprint;
  for (std::uint32_t t = 0; t < s.done.size(); ++t) {
    if (s.done[t] != 0) ckpt.completed.push_back({t, s.trials[t]});
  }
  for (const auto& [trial, entry] : s.inflight) ckpt.in_flight.push_back(entry);
  ckpt.metrics = s.merged;
  const Stopwatch watch;
  std::string error;
  if (!io::write_file_atomic(s.options->checkpoint_path,
                             serialize_campaign_checkpoint(ckpt), &error)) {
    std::fprintf(stderr, "ppk: campaign checkpoint write failed: %s\n",
                 error.c_str());
    if (s.options->runtime_metrics != nullptr) {
      s.options->runtime_metrics->counter("campaign.checkpoint.errors").inc();
    }
    return;
  }
  if (s.options->runtime_metrics != nullptr) {
    s.options->runtime_metrics->counter("campaign.checkpoints").inc();
    s.options->runtime_metrics->histogram("campaign.checkpoint.write_us")
        .record(static_cast<std::uint64_t>(watch.seconds() * 1e6));
  }
}

/// Counts one progress event and writes a checkpoint when the cadence is
/// reached.
void maybe_checkpoint_locked(Shared& s) {
  if (s.options->checkpoint_path.empty()) return;
  if (++s.events < s.options->checkpoint_every_chunks) return;
  s.events = 0;
  write_checkpoint_locked(s);
}

/// Chunk-boundary bookkeeping: files an in-flight capture (the state a
/// checkpoint would persist), counts the progress event, and reports
/// whether the campaign is halting.
bool at_boundary(Shared& s, InFlightTrial entry) {
  const std::lock_guard<std::mutex> lock(s.mutex);
  const std::uint32_t trial = entry.trial;
  s.inflight[trial] = std::move(entry);
  maybe_checkpoint_locked(s);
  return halt_locked(s);
}

/// Per-trial outcome instruments: the Monte-Carlo runner's plus the
/// supervision verdicts.
void stamp_outcome(obs::MetricsRegistry& metrics, const CampaignTrial& t) {
  pp::record_trial_metrics(metrics, t.result);
  if (t.failed) metrics.counter("trials.failed").inc();
  if (t.retries > 0) {
    metrics.counter("trials.retried").inc();
    metrics.counter("trial.retries").inc(t.retries);
  }
}

void run_trial(Shared& s, const pp::Protocol* protocol,
               const pp::TransitionTable& table, const Counts& initial,
               const pp::OracleFactory& make_oracle, std::uint32_t idx) {
  const CampaignOptions& o = *s.options;
  std::optional<InFlightTrial> start;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    if (halt_locked(s)) {
      s.trials[idx].censored = true;
      return;
    }
    const auto it = s.inflight.find(idx);
    if (it != s.inflight.end()) start = it->second;
  }

  CampaignTrial out;
  obs::MetricsRegistry trial_metrics;
  std::uint32_t attempt = 0;
  if (start) {
    attempt = start->retry;
    out.retries = start->retry;
    out.result.interactions = start->interactions;
    out.result.effective = start->effective;
    out.result.watch_marks = start->watch_marks;
    trial_metrics = start->metrics;
  }

  const std::uint64_t trial_seed = derive_stream_seed(o.mc.master_seed, idx);
  while (true) {
    const std::uint64_t seed =
        attempt == 0 ? trial_seed
                     : derive_stream_seed(trial_seed, kRetryStream + attempt);
    const std::uint64_t budget =
        attempt_budget(o.mc.max_interactions, o.retry_backoff, attempt);
    auto oracle = make_oracle();
    PPK_ASSERT(oracle != nullptr);
    const pp::TrialLimits limits{budget, o.chunk_interactions,
                                 o.mc.wall_clock_limit_seconds};
    const pp::TrialEnd end = pp::with_engine(
        protocol, table, initial, o.mc, seed, &trial_metrics,
        &out.result.watch_marks, [&](auto& sim) {
          std::uint64_t consumed = 0;
          if (start) {
            sim.restore(start->snapshot);
            oracle->reset(start->counts);
            oracle->restore_state(start->oracle_state);
            consumed = start->consumed;
          }
          return pp::drive_trial(
              sim, *oracle, limits, &out.result, consumed,
              [&](std::uint64_t at) {
                return at_boundary(
                    s, InFlightTrial{idx, attempt, at, out.result.interactions,
                                     out.result.effective, sim.snapshot(),
                                     oracle->save_state(), sim.counts(),
                                     out.result.watch_marks, trial_metrics});
              });
        });
    start.reset();
    if (end == pp::TrialEnd::kStabilized) {
      out.result.stabilized = true;
      break;
    }
    if (end == pp::TrialEnd::kTimedOut) {
      out.result.timed_out = true;
      break;
    }
    if (end == pp::TrialEnd::kCensored) {
      out.censored = true;
      break;
    }
    // Stalled or budget-exhausted: retry with a backed-off budget, or give
    // up with a failed verdict.
    if (attempt >= o.max_retries) {
      out.failed = true;
      out.result.stalled = end == pp::TrialEnd::kStalled;
      break;
    }
    ++attempt;
    ++out.retries;
    out.result.watch_marks.clear();  // marks describe the final attempt
    if (o.runtime_metrics != nullptr) {
      const std::lock_guard<std::mutex> lock(s.mutex);
      o.runtime_metrics->counter("campaign.retries").inc();
    }
  }

  const std::lock_guard<std::mutex> lock(s.mutex);
  s.trials[idx] = out;
  if (o.on_trial) o.on_trial(idx, out);
  if (out.censored) return;  // the in-flight capture stays resumable
  s.done[idx] = 1;
  s.inflight.erase(idx);
  stamp_outcome(trial_metrics, out);
  s.merged.merge(trial_metrics);
  maybe_checkpoint_locked(s);
}

/// The fingerprint's topology field: "complete" without a factory, else a
/// hash of the agent count and edge list of the graph trial 0 runs on (the
/// factory is a std::function and cannot be compared itself).  A
/// randomized factory is pinned by its trial-0 draw.
std::string topology_fingerprint(const pp::MonteCarloOptions& mc) {
  if (!mc.graph) return "complete";
  const std::uint64_t trial0 = derive_stream_seed(mc.master_seed, 0);
  const pp::InteractionGraph graph =
      mc.graph(derive_stream_seed(trial0, pp::kGraphTopologyStream));
  std::vector<std::uint32_t> words{graph.num_agents()};
  for (const auto& [a, b] : graph.edges()) {
    words.push_back(a);
    words.push_back(b);
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "edges:%016llx",
                static_cast<unsigned long long>(pp::CountsHash{}(words)));
  return buffer;
}

}  // namespace

std::string campaign_fingerprint(const pp::Counts& initial,
                                 const CampaignOptions& options) {
  // The resolved engine, not the requested one: a kAuto checkpoint written
  // under another resolve_engine() mapping holds snapshots of a different
  // engine and must be refused, not restored into the wrong one.  It is
  // recorded by its stable name, which survives a change to the Engine
  // enumerators' values.
  std::ostringstream out;
  out << kCampaignSchema << " trials=" << options.mc.trials
      << " seed=" << options.mc.master_seed
      << " budget=" << options.mc.max_interactions
      << " engine=" << pp::engine_name(pp::trial_engine(initial, options.mc))
      << " topology=" << topology_fingerprint(options.mc)
      << " watch="
      << (options.mc.watch_state ? static_cast<int>(*options.mc.watch_state)
                                 : -1)
      << " chunk=" << options.chunk_interactions
      << " retries=" << options.max_retries;
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", options.retry_backoff);
  out << " backoff=" << buffer;
  // The fairness spec shapes every trajectory the adversarial engine
  // draws; a checkpoint written under one policy must refuse to resume
  // under another (epsilon included: epsilon-fair trajectories differ
  // per epsilon).
  std::snprintf(buffer, sizeof buffer, "%.17g", options.mc.fairness.epsilon);
  out << " fairness=" << pp::to_string(options.mc.fairness.policy) << ":eps="
      << buffer << " counts=";
  for (std::size_t i = 0; i < initial.size(); ++i) {
    out << (i == 0 ? "" : ",") << initial[i];
  }
  return out.str();
}

std::string serialize_campaign_checkpoint(const CampaignCheckpoint& checkpoint) {
  std::ostringstream out;
  {
    io::JsonWriter json(out);
    json.begin_object();
    json.member("schema", kCampaignSchema);
    json.member("fingerprint", checkpoint.fingerprint);
    json.key("completed");
    json.begin_array();
    for (const CompletedTrial& t : checkpoint.completed) {
      write_completed(json, t);
    }
    json.end_array();
    json.key("in_flight");
    json.begin_array();
    for (const InFlightTrial& t : checkpoint.in_flight) {
      write_inflight(json, t);
    }
    json.end_array();
    json.key("metrics");
    write_registry(json, checkpoint.metrics);
    json.end_object();
  }
  return out.str();
}

std::optional<CampaignCheckpoint> parse_campaign_checkpoint(
    std::string_view text, std::string* error) {
  const auto fail = [&](const std::string& reason) {
    if (error != nullptr) *error = "checkpoint: " + reason;
    return std::nullopt;
  };
  std::string json_error;
  const auto root = io::parse_json(text, &json_error);
  if (!root) return fail(json_error);
  if (!root->is_object()) return fail("not an object");
  const io::JsonValue* schema = root->find("schema");
  if (schema == nullptr || !schema->is_string()) return fail("missing schema");
  if (schema->as_string() != kCampaignSchema) return fail("unknown schema");
  const io::JsonValue* fingerprint = root->find("fingerprint");
  if (fingerprint == nullptr || !fingerprint->is_string()) {
    return fail("missing fingerprint");
  }
  const io::JsonValue* completed = root->find("completed");
  const io::JsonValue* in_flight = root->find("in_flight");
  const io::JsonValue* metrics = root->find("metrics");
  if (completed == nullptr || !completed->is_array() || in_flight == nullptr ||
      !in_flight->is_array() || metrics == nullptr) {
    return fail("missing section");
  }
  CampaignCheckpoint result;
  result.fingerprint = fingerprint->as_string();
  std::string section_error;
  for (const io::JsonValue& item : completed->items) {
    CompletedTrial t;
    if (!read_completed(item, &t, &section_error)) return fail(section_error);
    result.completed.push_back(std::move(t));
  }
  for (const io::JsonValue& item : in_flight->items) {
    InFlightTrial t;
    if (!read_inflight(item, &t, &section_error)) return fail(section_error);
    result.in_flight.push_back(std::move(t));
  }
  if (!read_registry(*metrics, &result.metrics, &section_error)) {
    return fail(section_error);
  }
  return result;
}

namespace {

CampaignResult run_campaign_impl(const pp::Protocol* protocol,
                                 const pp::TransitionTable& table,
                                 const pp::Counts& initial,
                                 const pp::OracleFactory& make_oracle,
                                 const CampaignOptions& options) {
  PPK_EXPECTS(options.mc.trials > 0);
  PPK_EXPECTS(options.mc.metrics == nullptr);
  PPK_EXPECTS(options.chunk_interactions >= 1);
  PPK_EXPECTS(options.checkpoint_every_chunks >= 1);
  PPK_EXPECTS(options.max_retries == 0 || options.retry_backoff >= 1.0);

  CampaignResult result;
  Shared s;
  s.options = &options;
  // The fingerprint resolves the engine through pp::trial_engine(), which
  // checks every engine, watch, topology and fairness precondition.
  s.fingerprint = campaign_fingerprint(initial, options);
  s.trials.resize(options.mc.trials);
  s.done.assign(options.mc.trials, 0);

  if (!options.checkpoint_path.empty()) {
    std::ifstream file(options.checkpoint_path);
    if (file) {
      std::ostringstream buffer;
      buffer << file.rdbuf();
      std::string error;
      const auto ckpt = parse_campaign_checkpoint(buffer.str(), &error);
      if (!ckpt) {
        result.error = options.checkpoint_path + ": " + error;
        return result;
      }
      if (ckpt->fingerprint != s.fingerprint) {
        result.error = options.checkpoint_path +
                       ": checkpoint was written by a different campaign "
                       "configuration";
        result.stale_checkpoint = true;
        return result;
      }
      for (const CompletedTrial& t : ckpt->completed) {
        if (t.trial >= options.mc.trials) {
          result.error = options.checkpoint_path + ": trial index out of range";
          return result;
        }
        s.trials[t.trial] = t.data;
        s.done[t.trial] = 1;
      }
      for (const InFlightTrial& t : ckpt->in_flight) {
        if (t.trial >= options.mc.trials || s.done[t.trial] != 0) {
          result.error = options.checkpoint_path + ": bad in-flight trial";
          return result;
        }
        s.inflight[t.trial] = t;
      }
      s.merged = ckpt->metrics;
      result.resumed = true;
    }
  }

  const auto body = [&](std::size_t idx) {
    if (s.done[idx] != 0) return;  // set only before the pool starts
    run_trial(s, protocol, table, initial, make_oracle,
              static_cast<std::uint32_t>(idx));
  };
  pp::for_each_trial(options.mc.trials, options.mc.threads, body);

  const std::lock_guard<std::mutex> lock(s.mutex);
  if (!options.checkpoint_path.empty()) write_checkpoint_locked(s);
  result.trials = std::move(s.trials);
  result.metrics = std::move(s.merged);
  result.complete = true;
  for (const char done : s.done) result.complete = result.complete && done != 0;
  if (options.runtime_metrics != nullptr) {
    options.runtime_metrics->gauge("campaign.trials.censored")
        .set(static_cast<std::int64_t>(result.censored_count()));
    options.runtime_metrics->gauge("campaign.trials.failed")
        .set(static_cast<std::int64_t>(result.failed_count()));
  }
  return result;
}

}  // namespace

CampaignResult run_campaign(const pp::TransitionTable& table,
                            const pp::Counts& initial,
                            const pp::OracleFactory& make_oracle,
                            const CampaignOptions& options) {
  PPK_EXPECTS(!options.mc.fairness.needs_adversarial_engine());
  return run_campaign_impl(nullptr, table, initial, make_oracle, options);
}

CampaignResult run_campaign(const pp::Protocol& protocol,
                            const pp::TransitionTable& table,
                            const pp::Counts& initial,
                            const pp::OracleFactory& make_oracle,
                            const CampaignOptions& options) {
  return run_campaign_impl(&protocol, table, initial, make_oracle, options);
}

CampaignResult run_campaign(const pp::Protocol& protocol,
                            const pp::TransitionTable& table, std::uint32_t n,
                            const pp::OracleFactory& make_oracle,
                            const CampaignOptions& options) {
  Counts initial(protocol.num_states(), 0);
  initial[protocol.initial_state()] = n;
  return run_campaign_impl(&protocol, table, initial, make_oracle, options);
}

}  // namespace ppk::core

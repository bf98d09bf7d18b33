#include "common.hpp"

#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "util/simd.hpp"

#ifndef PPK_OBS_ENABLED
#define PPK_OBS_ENABLED 1
#endif

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t at = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return n - std::min(at, n);
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

void Outcome::record(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (reasons.size() < 8) reasons.push_back(what);
}

int Tracer::begin(const std::string& name) {
  Record r;
  r.name = name;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start = now_s();
  spans_.push_back(std::move(r));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::end(int index) {
  spans_[static_cast<std::size_t>(index)].end = now_s();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Record& r : spans_) {
    if (r.parent >= 0) {
      children[static_cast<std::size_t>(r.parent)].emplace_back(r.start,
                                                                r.end);
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Length of the union of the children's intervals.
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0, reach = -1e300;
    for (const auto& [start, end] : c) {
      const double from = std::max(start, reach);
      if (end > from) covered += end - from;
      reach = std::max(reach, end);
    }
    const Record& r = spans_[i];
    const std::string layer = r.name.substr(0, r.name.find('.'));
    out[layer] += std::max(0.0, r.end - r.start - covered);
  }
  return out;
}

void Tracer::write(ppk::io::JsonWriter& out) const {
  out.begin_object();
  out.member("run_id", run_id_);
  out.key("spans");
  out.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    out.begin_object();
    out.member("id", static_cast<std::uint64_t>(i));
    out.member("name", r.name);
    out.member("start", r.start);
    out.member("end", r.end);
    out.member("parent", r.parent);
    out.end_object();
  }
  out.end_array();
  out.end_object();
}

double self_peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss keeps the high-water mark of the image
  // that exec replaced (the launcher's), VmHWM starts afresh with this one.
  return process_peak_rss_mb(static_cast<int>(::getpid()));
}

double process_peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:   1234 kB"
    }
  }
  return 0.0;
}

std::string filesystem_type(const std::string& path) {
  struct statfs info{};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof hex, "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return hex;
    }
  }
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

}  // namespace

void write_machine(ppk::io::JsonWriter& out, const std::string& state_dir,
                   const std::string& git_rev, double calibration_ns) {
  out.begin_object();
  out.member("nproc", hardware_threads());
  out.member("cpu_model", cpu_model());
  out.member("compiler", __VERSION__);
  out.member("simd", ppk::simd::active_name());
  out.member("ppk_observability", PPK_OBS_ENABLED != 0);
#ifdef NDEBUG
  out.member("assertions", "contracts on, NDEBUG");
#else
  out.member("assertions", "contracts on, assert on");
#endif
  out.member("state_dir_fs", filesystem_type(state_dir));
  out.member("git_rev", git_rev);
  out.member("calibration_ns_per_iter", calibration_ns);
  out.end_object();
}

double calibration_ns_per_iter() {
  constexpr std::uint64_t kIters = 50'000'000;
  std::vector<double> times;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t x = 0x2545F4914F6CDD1DULL + static_cast<std::uint64_t>(rep);
    const double t0 = now_s();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    times.push_back((now_s() - t0) * 1e9 / static_cast<double>(kIters));
    sink = sink + x;
  }
  return median(times);
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t hash) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

unsigned hardware_threads() {
  return std::max(1U, std::thread::hardware_concurrency());
}

unsigned pool_threads() { return std::max(1U, hardware_threads() - 1); }

}  // namespace perfbench

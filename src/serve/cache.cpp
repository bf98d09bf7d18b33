#include "serve/cache.hpp"

#include <sys/stat.h>
#include <sys/types.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/atomic_file.hpp"

namespace ppk::serve {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return buffer.str();
}

/// `entry` if it carries `"member": "schema"`, else nullopt.  Untagged or
/// differently-tagged entries are misses: the caller recomputes and
/// overwrites them with a current frame.
std::optional<std::string> if_tagged(std::optional<std::string> entry,
                                     std::string_view member,
                                     std::string_view schema) {
  if (!entry) return std::nullopt;
  const std::string tag = "\"" + std::string(member) + "\": \"" +
                          std::string(schema) + "\"";
  if (entry->find(tag) == std::string::npos) return std::nullopt;
  return entry;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::entry_path(const std::string& hash_hex,
                                    std::uint64_t seed) const {
  char suffix[32];
  std::snprintf(suffix, sizeof suffix, "%" PRIu64, seed);
  return dir_ + "/sim-" + hash_hex + "-" + suffix + ".json";
}

std::string ResultCache::exact_entry_path(const std::string& hash_hex) const {
  return dir_ + "/exact-" + hash_hex + ".json";
}

std::optional<std::string> ResultCache::find(const std::string& hash_hex,
                                             std::uint64_t seed) const {
  if (!enabled()) return std::nullopt;
  return read_file(entry_path(hash_hex, seed));
}

std::optional<std::string> ResultCache::find_sim(const std::string& hash_hex,
                                                 std::uint64_t seed) const {
  return if_tagged(find(hash_hex, seed), "sim_schema", kSimResultSchema);
}

std::optional<std::string> ResultCache::find_exact(
    const std::string& hash_hex) const {
  if (!enabled()) return std::nullopt;
  return if_tagged(read_file(exact_entry_path(hash_hex)), "exact_schema",
                   kExactResultSchema);
}

bool ResultCache::store(const std::string& hash_hex, std::uint64_t seed,
                        const std::string& frame) {
  if (!enabled()) return false;
  ::mkdir(dir_.c_str(), 0755);  // best effort; write reports real failures
  return io::write_file_atomic(entry_path(hash_hex, seed), frame);
}

bool ResultCache::store_exact(const std::string& hash_hex,
                              const std::string& frame) {
  if (!enabled()) return false;
  ::mkdir(dir_.c_str(), 0755);
  return io::write_file_atomic(exact_entry_path(hash_hex), frame);
}

}  // namespace ppk::serve

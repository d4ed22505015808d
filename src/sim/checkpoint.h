// Campaign checkpoint/resume.
//
// Long campaigns (the production target is millions of defect simulations)
// must survive interruption: a killed run restarts from its last flushed
// checkpoint instead of from zero, and -- because every verdict is a pure
// function of (system config, program, bus, defect) -- the resumed run is
// bitwise identical to an uninterrupted one at any thread count.
//
// The file is plain text, diffable, and crash-durable: every flush is one
// util::write_durable of the full state (util/durable_file.h), so a crash
// at any point leaves either the previous or the new complete checkpoint
// -- never a torn one -- and open sweeps the tmps of a crashed flush.
//
//   xtest-checkpoint v2
//   key <free-form campaign identity line>
//   crc <8 hex digits over the two lines above>
//   section <name> <count>
//   <count verdict chars: U D T E, '.' = pending>
//   crc <8 hex digits over the section header + slot line>
//
// An on-line campaign's section carries each completed slot's full
// OnlineOutcome, one line per completed slot in index order, inside the
// same CRC group:
//
//   section <name> <count> outcomes
//   <count verdict chars>
//   <index> <latency> <rounds> <heartbeats> <late> <missed>
//   crc <8 hex digits over the header, slot and outcome lines>
//
// Every line group carries a CRC-32 trailer, which makes the file
// *salvageable*: a load that finds a truncated or corrupted tail keeps the
// longest valid prefix of sections (dropping only the damaged suffix,
// reported via salvage()) instead of throwing the whole run away.  The
// retired v1 format (no CRCs) is refused like any other foreign file.
//
// Sections let one file cover a multi-session campaign (one section per
// session program).  The key line guards against resuming with the wrong
// campaign: a *CRC-valid* mismatching key throws instead of silently
// mixing results (a corrupt key line is salvage, not mismatch).

#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/verdict.h"

namespace xtest::sim {

/// What a salvage load recovered and what it had to drop.
struct SalvageReport {
  /// True when the file was damaged and a prefix (possibly empty) was
  /// recovered instead of loading cleanly.
  bool salvaged = false;
  /// Sections recovered intact (the valid prefix).
  std::size_t sections_kept = 0;
  /// Completed verdict chars visible in the dropped tail: work lost to
  /// the corruption that the resumed campaign re-simulates.
  std::size_t dropped_slots = 0;
};

class CampaignCheckpoint {
 public:
  /// Opens `path`: removes stale tmp files from a previous crash, then
  /// loads the existing checkpoint when the file exists.  A damaged file
  /// is salvaged (see salvage()); std::runtime_error is thrown only for a
  /// file that is not a checkpoint at all, an unreadable file, or a
  /// CRC-valid key mismatch.  `flush_every` is the floor of record()'s
  /// flush cadence (SIZE_MAX: never flush periodically).  `tag` (e.g. "s3"
  /// for shard 3) is the util::write_durable tag of this instance's tmp
  /// files, so worker processes sharing a path, each with its own tag,
  /// never sweep each other's in-flight writes.
  CampaignCheckpoint(std::string path, std::string key,
                     std::size_t flush_every = 1, std::string tag = "");

  /// Result of the constructor's load: clean, fresh, or salvaged.
  const SalvageReport& salvage() const { return salvage_; }

  /// Returns the previously completed verdicts of `section` (nullopt =
  /// still pending), registering the section at `count` slots if it is
  /// new.  Throws if the stored section has a different slot count or is
  /// an on-line one.
  std::vector<std::optional<Verdict>> restore(const std::string& section,
                                              std::size_t count);

  /// restore() for an on-line section: the completed slots' full outcomes.
  /// A new section is registered as an on-line one; throws if the stored
  /// section is an off-line (verdict-only) one.
  std::vector<std::optional<OnlineOutcome>> restore_outcomes(
      const std::string& section, std::size_t count);

  /// Records one completed verdict.  Thread-safe; flushes the whole state
  /// atomically once the records since the last flush reach
  /// max(flush_every, held / 16), where held is the slot count of every
  /// section in the file.  A *periodic* flush that fails (ENOSPC,
  /// injected fault) is swallowed and counted in flush_failures() -- the
  /// campaign's in-memory verdicts outrank one missed flush, and the next
  /// cadence point retries.  The section must have been registered via
  /// restore().
  void record(const std::string& section, std::size_t index, Verdict v);

  /// record() for an on-line section registered via restore_outcomes().
  void record(const std::string& section, std::size_t index,
              const OnlineOutcome& outcome);

  /// Durable write: tmp + fsync + rename (+ directory fsync).  Throws on
  /// failure.  Thread-safe.
  void flush();

  /// Periodic flushes from record() that failed and were deferred.
  std::size_t flush_failures() const;

  /// Completed slots across all sections (for reporting).
  std::size_t completed() const;

 private:
  /// Parses a non-empty file.
  void load(const std::string& text);
  void drop_tail(const std::vector<std::string>& lines, std::size_t from);
  struct Section {
    std::string name;
    /// Slot chars as in the file format.
    std::vector<char> slots;
    /// On-line sections only: every slot's outcome (valid where the slot
    /// is completed).  Empty for an off-line section.
    std::vector<OnlineOutcome> outcomes;
    bool online = false;
  };

  bool load_section(const std::vector<std::string>& lines, std::size_t& i);
  /// Both record()s: `outcome` is null for an off-line section.
  void record_slot(const std::string& section, std::size_t index, Verdict v,
                   const OnlineOutcome* outcome);
  void flush_locked();
  std::string render_locked() const;
  Section* find_locked(const std::string& section);
  Section& registered_locked(const std::string& section, std::size_t count,
                             bool online);

  std::string path_;
  std::string key_;
  std::string tag_;
  std::size_t flush_every_;
  /// Slots of every section, loaded or registered: the cadence's scale.
  std::size_t held_ = 0;
  std::size_t dirty_ = 0;
  std::size_t flush_failures_ = 0;
  SalvageReport salvage_;
  mutable std::mutex mu_;
  /// Insertion-ordered, as in the file.
  std::vector<Section> sections_;
};

/// restore() or restore_outcomes(), by outcome type: how the campaign
/// engine resumes a section and how the supervisor reads a shard's result.
template <typename Outcome>
std::vector<std::optional<Outcome>> restore_slots(CampaignCheckpoint& c,
                                                  const std::string& section,
                                                  std::size_t n) {
  if constexpr (std::is_same_v<Outcome, Verdict>)
    return c.restore(section, n);
  else
    return c.restore_outcomes(section, n);
}

}  // namespace xtest::sim

#include "sim/checkpoint.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/durable_file.h"

namespace xtest::sim {

namespace {

constexpr const char* kMagicV2 = "xtest-checkpoint v2";

[[noreturn]] void malformed(const std::string& path, const std::string& why) {
  throw std::runtime_error("checkpoint " + path + ": " + why);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

/// "section <name> <count>", plus " outcomes" for an on-line section.
bool parse_section_header(const std::string& line, std::string& name,
                          std::size_t& count, bool& online) {
  std::istringstream hs(line);
  std::string word;
  if (!(hs >> word >> name >> count) || word != "section") return false;
  online = static_cast<bool>(hs >> word);
  return !online || (word == "outcomes" && !(hs >> word));
}

/// "<index> <latency> <rounds> <heartbeats> <late> <missed>" for the slot
/// at `index`.
bool parse_outcome_line(const std::string& line, std::size_t index,
                        OnlineOutcome& out) {
  std::istringstream ls(line);
  std::size_t at = 0;
  return ls >> at >> out.detection_latency_cycles >> out.rounds >>
             out.heartbeats >> out.deadlines_late >> out.deadlines_missed &&
         at == index && (ls >> std::ws).eof();
}

bool valid_slots(const std::string& slots) {
  Verdict v;
  for (const char c : slots)
    if (c != '.' && !verdict_from_char(c, v)) return false;
  return true;
}

/// A line that looks like a section slot line: only verdict chars and '.'.
bool slot_like(const std::string& line) {
  return !line.empty() && valid_slots(line);
}

}  // namespace

CampaignCheckpoint::CampaignCheckpoint(std::string path, std::string key,
                                       std::size_t flush_every,
                                       std::string tag)
    : path_(std::move(path)),
      key_(std::move(key)),
      tag_(std::move(tag)),
      flush_every_(flush_every == 0 ? 1 : flush_every) {
  util::sweep_stale_tmps(path_, tag_);
  // Absent: a fresh campaign.  Empty: crashed during the very first
  // create.  Neither has anything to resume.
  const std::optional<std::string> text = util::read_file(path_);
  if (text && !text->empty()) load(*text);
}

void CampaignCheckpoint::load(const std::string& text) {
  const std::vector<std::string> lines = split_lines(text);
  if (lines[0] != kMagicV2) {
    // A truncation can cut the file anywhere, including inside the magic
    // line; a strict prefix of the magic is corruption to recover from,
    // anything else (a retired v1 file included) is some other file we
    // must refuse to overwrite.
    if (lines.size() == 1 && std::string(kMagicV2).rfind(lines[0], 0) == 0) {
      salvage_.salvaged = true;
      return;
    }
    malformed(path_, "not a checkpoint file (bad magic line)");
  }
  std::uint32_t stored = 0;
  if (lines.size() < 3 || lines[1].rfind("key ", 0) != 0 ||
      !util::parse_crc_line(lines[2], stored) ||
      util::crc32(lines[0] + '\n' + lines[1] + '\n') != stored) {
    // Header unverifiable: the whole file is untrustworthy.  Restart
    // cleanly rather than resume from (or mis-reject on) a corrupt key.
    drop_tail(lines, 1);
    return;
  }
  const std::string stored_key = lines[1].substr(4);
  if (stored_key != key_)
    malformed(path_, "key mismatch: file was written for '" + stored_key +
                         "' but this campaign is '" + key_ +
                         "' (delete the file to start over)");
  std::size_t i = 3;
  while (i < lines.size()) {
    if (!load_section(lines, i)) {
      drop_tail(lines, i);
      return;
    }
  }
}

bool CampaignCheckpoint::load_section(const std::vector<std::string>& lines,
                                      std::size_t& i) {
  Section section;
  std::size_t count = 0;
  if (!parse_section_header(lines[i], section.name, count, section.online) ||
      i + 1 >= lines.size() || lines[i + 1].size() != count ||
      !valid_slots(lines[i + 1]))
    return false;
  section.slots.assign(lines[i + 1].begin(), lines[i + 1].end());
  std::string group = lines[i] + '\n' + lines[i + 1] + '\n';
  std::size_t j = i + 2;
  if (section.online) {
    section.outcomes.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
      if (section.slots[k] == '.') continue;
      OnlineOutcome& o = section.outcomes[k];
      if (j >= lines.size() || !parse_outcome_line(lines[j], k, o))
        return false;
      verdict_from_char(section.slots[k], o.verdict);
      group += lines[j++] + '\n';
    }
  }
  std::uint32_t crc = 0;
  if (j >= lines.size() || !util::parse_crc_line(lines[j], crc) ||
      util::crc32(group) != crc)
    return false;
  held_ += count;
  sections_.push_back(std::move(section));
  ++salvage_.sections_kept;
  i = j + 1;
  return true;
}

void CampaignCheckpoint::drop_tail(const std::vector<std::string>& lines,
                                   std::size_t from) {
  salvage_.salvaged = true;
  for (std::size_t j = from; j < lines.size(); ++j)
    if (slot_like(lines[j]))
      for (const char c : lines[j]) salvage_.dropped_slots += c != '.';
}

CampaignCheckpoint::Section* CampaignCheckpoint::find_locked(
    const std::string& section) {
  for (Section& s : sections_)
    if (s.name == section) return &s;
  return nullptr;
}

CampaignCheckpoint::Section& CampaignCheckpoint::registered_locked(
    const std::string& section, std::size_t count, bool online) {
  Section* s = find_locked(section);
  if (s == nullptr) {
    held_ += count;
    sections_.push_back(
        {section, std::vector<char>(count, '.'),
         online ? std::vector<OnlineOutcome>(count)
                : std::vector<OnlineOutcome>(),
         online});
    return sections_.back();
  }
  if (s->slots.size() != count)
    malformed(path_, "section '" + section + "' has " +
                         std::to_string(s->slots.size()) +
                         " slots but the campaign needs " +
                         std::to_string(count) +
                         " (different library?)");
  if (s->online != online)
    malformed(path_, "section '" + section + "' holds " +
                         (s->online ? "on-line outcomes" : "verdicts only") +
                         " but the campaign is " +
                         (online ? "on-line" : "off-line"));
  return *s;
}

std::vector<std::optional<Verdict>> CampaignCheckpoint::restore(
    const std::string& section, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const Section& s = registered_locked(section, count, false);
  std::vector<std::optional<Verdict>> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    Verdict v;
    if (verdict_from_char(s.slots[i], v)) out[i] = v;
  }
  return out;
}

std::vector<std::optional<OnlineOutcome>> CampaignCheckpoint::restore_outcomes(
    const std::string& section, std::size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  const Section& s = registered_locked(section, count, true);
  std::vector<std::optional<OnlineOutcome>> out(count);
  for (std::size_t i = 0; i < count; ++i)
    if (s.slots[i] != '.') out[i] = s.outcomes[i];
  return out;
}

void CampaignCheckpoint::record(const std::string& section, std::size_t index,
                                Verdict v) {
  record_slot(section, index, v, nullptr);
}

void CampaignCheckpoint::record(const std::string& section, std::size_t index,
                                const OnlineOutcome& outcome) {
  record_slot(section, index, outcome.verdict, &outcome);
}

void CampaignCheckpoint::record_slot(const std::string& section,
                                     std::size_t index, Verdict v,
                                     const OnlineOutcome* outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  Section* s = find_locked(section);
  if (s == nullptr || index >= s->slots.size() ||
      s->online != (outcome != nullptr))
    throw std::logic_error("CampaignCheckpoint::record: unknown slot " +
                           section + "[" + std::to_string(index) + "]");
  s->slots[index] = to_char(v);
  if (outcome != nullptr) s->outcomes[index] = *outcome;
  // Cadence: every flush rewrites the whole file, so it waits for a
  // sixteenth of the slots the file holds (never fewer than flush_every_
  // records).  A hard crash loses fewer than max(flush_every_, held_ / 16)
  // records, and never more than the current session: run_slots flushes
  // when each session ends.  Cost: session k of an unsharded campaign
  // over n defects holds k * n slots and records n, so it flushes about
  // 16 / k times; six sessions make 16 * (1 + 1/2 + ... + 1/6) ~ 39
  // periodic flushes at any library size, so the bytes written grow
  // linearly with the library.
  if (++dirty_ >= std::max(flush_every_, held_ / 16)) {
    try {
      flush_locked();
    } catch (const std::exception&) {
      // A failed periodic flush costs durability, not correctness: keep
      // the in-memory verdicts, retry at the next cadence point.
      ++flush_failures_;
      dirty_ = 0;
    }
  }
}

void CampaignCheckpoint::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

std::size_t CampaignCheckpoint::flush_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flush_failures_;
}

std::size_t CampaignCheckpoint::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const Section& s : sections_)
    for (const char c : s.slots) n += c != '.';
  return n;
}

std::string CampaignCheckpoint::render_locked() const {
  std::ostringstream os;
  const std::string header =
      std::string(kMagicV2) + '\n' + "key " + key_ + '\n';
  os << header << util::crc_line(header) << '\n';
  for (const Section& s : sections_) {
    std::string group = "section " + s.name + ' ' +
                        std::to_string(s.slots.size()) +
                        (s.online ? " outcomes\n" : "\n");
    group.append(s.slots.data(), s.slots.size());
    group += '\n';
    for (std::size_t k = 0; s.online && k < s.slots.size(); ++k) {
      if (s.slots[k] == '.') continue;
      const OnlineOutcome& o = s.outcomes[k];
      group += std::to_string(k) + ' ' +
               std::to_string(o.detection_latency_cycles) + ' ' +
               std::to_string(o.rounds) + ' ' + std::to_string(o.heartbeats) +
               ' ' + std::to_string(o.deadlines_late) + ' ' +
               std::to_string(o.deadlines_missed) + '\n';
    }
    os << group << util::crc_line(group) << '\n';
  }
  return os.str();
}

void CampaignCheckpoint::flush_locked() {
  util::write_durable(path_, render_locked(), tag_, "checkpoint");
  dirty_ = 0;
}

}  // namespace xtest::sim

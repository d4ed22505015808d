#include "serve/queue.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/durable_file.h"
#include "util/fault_injector.h"

namespace xtest::serve {

namespace {

constexpr const char* kMagic = "xtest-serve-queue v1";

// The scenario text is multi-line free-form, so records carry explicit
// byte lengths instead of line structure:
//
//   xtest-serve-queue v1
//   next <id>
//   crc <8 hex>                        (over the two lines above)
//   job <id> <prio> <state> <attempts> <exit> <degraded>   (one line,
//       <scn-len> <verdict-len> <stats-len> <err-len>       wrapped here)
//   <scn bytes><verdict bytes><stats bytes><err bytes>\n
//   crc <8 hex>                        (over header line + payload + '\n')
//   ... more job records ...

/// Takes the next '\n'-terminated line starting at `pos` (newline consumed,
/// not returned).  False when the text ends before a newline.
bool take_line(const std::string& text, std::size_t& pos, std::string& line) {
  const std::size_t nl = text.find('\n', pos);
  if (nl == std::string::npos) return false;
  line.assign(text, pos, nl - pos);
  pos = nl + 1;
  return true;
}

std::string render_job(const Job& j) {
  std::ostringstream os;
  os << "job " << j.id << ' ' << j.priority << ' '
     << static_cast<unsigned>(static_cast<std::uint8_t>(j.state)) << ' '
     << j.attempts << ' ' << j.exit_code << ' ' << (j.degraded ? 1 : 0) << ' '
     << j.scenario.size() << ' ' << j.verdicts.size() << ' '
     << j.stats_json.size() << ' ' << j.error.size() << '\n';
  std::string record = os.str();
  record += j.scenario;
  record += j.verdicts;
  record += j.stats_json;
  record += j.error;
  record += '\n';
  return record + util::crc_line(record) + '\n';
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
  }
  return "?";
}

JobQueue::JobQueue(std::string path) : path_(std::move(path)) {}

std::size_t JobQueue::load() {
  jobs_.clear();
  salvage_dropped_ = 0;
  next_id_ = 1;
  if (path_.empty()) return 0;
  // A daemon killed mid-persist left its tmp behind; the file it was
  // replacing is still whole.
  util::sweep_stale_tmps(path_);
  const std::optional<std::string> file = util::read_file(path_);
  if (!file || file->empty()) return 0;  // fresh daemon, nothing to resume
  const std::string& text = *file;

  std::size_t pos = 0;
  std::string magic, next_line, crc;
  std::uint32_t stored = 0;
  if (!take_line(text, pos, magic)) {
    // The first line never finished: a torn header, not a foreign file
    // (truncation eats the newline first).  Start empty.
    ++salvage_dropped_;
    return 0;
  }
  if (magic != kMagic)
    throw std::runtime_error("serve queue " + path_ +
                             ": not a queue file (bad magic line)");
  if (!take_line(text, pos, next_line) || next_line.rfind("next ", 0) != 0 ||
      !take_line(text, pos, crc) || !util::parse_crc_line(crc, stored) ||
      util::crc32(magic + '\n' + next_line + '\n') != stored) {
    // Header unverifiable: treat as an empty queue rather than resume
    // from an untrustworthy id counter (ids would collide with clients'
    // memory of past jobs otherwise, so count it as salvage).
    ++salvage_dropped_;
    return 0;
  }
  {
    std::istringstream ns(next_line.substr(5));
    if (!(ns >> next_id_) || next_id_ == 0) {
      ++salvage_dropped_;
      next_id_ = 1;
      return 0;
    }
  }

  // Records: keep the longest valid prefix, drop the torn tail.
  while (pos < text.size()) {
    const std::size_t record_start = pos;
    std::string header;
    Job j;
    unsigned state = 0, degraded = 0;
    std::size_t scn = 0, ver = 0, sta = 0, err = 0;
    bool ok = take_line(text, pos, header);
    if (ok) {
      std::istringstream hs(header);
      std::string word;
      ok = static_cast<bool>(hs >> word >> j.id >> j.priority >> state >>
                             j.attempts >> j.exit_code >> degraded >> scn >>
                             ver >> sta >> err) &&
           word == "job" && state <= 3 && j.priority >= 0 && j.priority <= 9;
    }
    // Bound each length before summing: a damaged header must not wrap
    // the sum back into an in-range offset.
    const std::size_t left = text.size() - pos;
    ok = ok && scn < left && ver < left && sta < left && err < left;
    const std::size_t payload = scn + ver + sta + err;
    ok = ok && payload < left && text[pos + payload] == '\n';
    std::uint32_t want = 0;
    std::string crc2;
    if (ok) {
      const std::string covered =
          text.substr(record_start, pos + payload + 1 - record_start);
      std::size_t after = pos + payload + 1;
      ok = take_line(text, after, crc2) &&
           util::parse_crc_line(crc2, want) && util::crc32(covered) == want;
      if (ok) {
        j.state = static_cast<JobState>(state);
        j.degraded = degraded != 0;
        j.scenario.assign(text, pos, scn);
        j.verdicts.assign(text, pos + scn, ver);
        j.stats_json.assign(text, pos + scn + ver, sta);
        j.error.assign(text, pos + scn + ver + sta, err);
        pos = after;
      }
    }
    if (!ok) {
      // Torn tail: count every remaining record header for the report.
      std::size_t scan = record_start;
      std::string line;
      while (take_line(text, scan, line))
        salvage_dropped_ += line.rfind("job ", 0) == 0;
      salvage_dropped_ = std::max<std::size_t>(salvage_dropped_, 1);
      break;
    }
    // A job interrupted mid-run resumes from its shard checkpoints.
    if (j.state == JobState::kRunning) j.state = JobState::kQueued;
    if (j.id >= next_id_) next_id_ = j.id + 1;
    jobs_.push_back(std::move(j));
  }
  return jobs_.size();
}

std::uint64_t JobQueue::enqueue(std::string scenario, int priority) {
  Job j;
  j.id = next_id_++;
  j.priority = std::clamp(priority, 0, 9);
  j.scenario = std::move(scenario);
  jobs_.push_back(std::move(j));
  try {
    persist();
  } catch (...) {
    // A submit is only accepted once it is durable: roll the job back so
    // memory and disk agree, and let the caller report the rejection.
    jobs_.pop_back();
    --next_id_;
    throw;
  }
  return jobs_.back().id;
}

Job* JobQueue::next_queued() {
  Job* best = nullptr;
  for (Job& j : jobs_) {
    if (j.state != JobState::kQueued) continue;
    if (best == nullptr || j.priority > best->priority) best = &j;
    // FIFO within a band falls out of scan order: ids are ascending.
  }
  return best;
}

Job* JobQueue::find(std::uint64_t id) {
  for (Job& j : jobs_)
    if (j.id == id) return &j;
  return nullptr;
}

std::size_t JobQueue::pending() const {
  std::size_t n = 0;
  for (const Job& j : jobs_)
    n += j.state == JobState::kQueued || j.state == JobState::kRunning;
  return n;
}

void JobQueue::persist() {
  if (path_.empty()) return;
  std::string data =
      std::string(kMagic) + '\n' + "next " + std::to_string(next_id_) + '\n';
  data += util::crc_line(data) + '\n';
  for (const Job& j : jobs_) data += render_job(j);
  util::FaultInjector::global().maybe_fail("serve.enqueue");
  util::write_durable(path_, data);
}

}  // namespace xtest::serve

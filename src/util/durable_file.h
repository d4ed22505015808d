// Crash-durable files: the one reader, writer, stale-tmp sweep and CRC
// line codec behind the campaign checkpoint (sim/checkpoint.h) and the
// serve job queue (serve/queue.h).
//
// A durable write goes to a pid-unique "<path>.tmp.<pid>" (with a tag:
// "<path>.tmp.<tag>.<pid>"), is fsync'd, renamed over <path>, and the
// directory entry is fsync'd, so a crash at any point leaves either the
// previous or the new complete file, never a torn one.  A crash before the
// rename leaves the tmp behind for the owner's next open to sweep; tags
// keep writers that share a path (the shards of one campaign) from
// sweeping each other's in-flight tmps.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace xtest::util {

/// The whole file, or nullopt when it cannot be opened (absent).  Throws
/// std::runtime_error naming `path` on a read error midway: a half-read
/// file must never pass for a short one.
std::optional<std::string> read_file(const std::string& path);

/// Atomically replaces `path` with `data` (tmp, write, fsync, rename, then
/// a best-effort directory fsync), unlinking the tmp on any failure.  A
/// non-empty `site` consults the fault-injection sites "<site>.open",
/// ".write", ".fsync" and ".rename" before each step.  Throws
/// std::runtime_error naming the failed step and file.
void write_durable(const std::string& path, const std::string& data,
                   const std::string& tag = "", const std::string& site = "");

/// Removes the tmps a crashed write_durable(path, .., tag) left: exactly
/// "<path>.tmp.<tag>.<digits>" ("<path>.tmp.<digits>" untagged), so an
/// untagged sweep never touches a tagged writer's tmp.  Best effort.
void sweep_stale_tmps(const std::string& path, const std::string& tag = "");

/// "crc <8 lowercase hex digits>": the CRC-32 of `covered`, no newline.
std::string crc_line(const std::string& covered);

/// Inverse of crc_line; false when `line` is anything else.
bool parse_crc_line(const std::string& line, std::uint32_t& out);

}  // namespace xtest::util

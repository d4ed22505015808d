#include "util/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/crc32.h"
#include "util/fault_injector.h"
#include "util/retry.h"

namespace xtest::util {

namespace {

std::string parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  return parent.empty() ? "." : parent.string();
}

}  // namespace

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::string text;
  char buf[4096];
  while (in.read(buf, sizeof buf)) text.append(buf, sizeof buf);
  text.append(buf, static_cast<std::size_t>(in.gcount()));
  if (in.bad())
    throw std::runtime_error("cannot read " + path + ": " +
                             std::strerror(errno));
  return text;
}

void write_durable(const std::string& path, const std::string& data,
                   const std::string& tag, const std::string& site) {
  FaultInjector& inj = FaultInjector::global();
  const auto fault = [&](const char* step) {
    if (!site.empty()) inj.maybe_fail(site + step);
  };
  const std::string tmp = path + ".tmp." + (tag.empty() ? "" : tag + ".") +
                          std::to_string(static_cast<long>(::getpid()));
  const auto fail = [&](const std::string& what) {
    const int e = errno;
    throw std::runtime_error(what + ": " + std::strerror(e));
  };
  int fd = -1;
  try {
    fault(".open");
    fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (fd < 0) fail("cannot open " + tmp);
    fault(".write");
    if (!write_full(fd, data.data(), data.size()))
      fail("write failed for " + tmp);
    // The rename below publishes the file; without this fsync a crash
    // could publish a name whose *contents* never reached the disk.
    fault(".fsync");
    if (::fsync(fd) != 0) fail("fsync failed for " + tmp);
    const int closed = ::close(fd);
    fd = -1;
    if (closed != 0) fail("close failed for " + tmp);
    fault(".rename");
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      fail("cannot rename " + tmp + " to " + path);
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  // Make the rename itself durable (best effort -- some filesystems
  // refuse to open a directory for fsync).
  const int dfd =
      ::open(parent_dir(path).c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

void sweep_stale_tmps(const std::string& path, const std::string& tag) {
  namespace fs = std::filesystem;
  const std::string prefix = fs::path(path).filename().string() + ".tmp." +
                             (tag.empty() ? "" : tag + ".");
  std::error_code ec;
  fs::directory_iterator it(parent_dir(path), ec);
  if (ec) return;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() && name.rfind(prefix, 0) == 0 &&
        name.find_first_not_of("0123456789", prefix.size()) ==
            std::string::npos)
      fs::remove(entry.path(), ec);
  }
}

std::string crc_line(const std::string& covered) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "crc %08x", crc32(covered));
  return buf;
}

bool parse_crc_line(const std::string& line, std::uint32_t& out) {
  if (line.size() != 12 || line.rfind("crc ", 0) != 0 ||
      line.find_first_not_of("0123456789abcdef", 4) != std::string::npos)
    return false;
  out = static_cast<std::uint32_t>(std::stoul(line.substr(4), nullptr, 16));
  return true;
}

}  // namespace xtest::util

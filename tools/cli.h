// Command-line driver (library part, unit-testable).
//
// Subcommands mirror a tester flow:
//
//   xtest generate [--sessions] [--out PREFIX]    emit program image(s)
//   xtest assemble FILE.s [--out FILE.img]        assemble a program
//   xtest disasm FILE.img                         list an image
//   xtest run FILE.img --entry ADDR [--trace]     execute on the system
//   xtest campaign [--bus addr|data|ctrl] [--defects N] [--seed S]
//                  [--threads T] [--checkpoint FILE] [--faults SPEC]
//                  [--workers N] [--shard K/N]    defect-coverage campaign
//   xtest chaos [--bus B] [--defects N] [--seed S] [--cycles K]
//               [--threads T] [--workers N]       kill/resume soak test
//   xtest serve --socket PATH|--port N --queue FILE
//               [--idle-timeout-ms MS] [--faults SPEC]   campaign daemon
//   xtest submit [--socket PATH|--port N] ...     queue a job on a daemon
//   xtest scenarios [--dump NAME|FILE]            list / dump scenarios
//
// usage() prints every flag, rendered from the same table the parser
// reads.  Images use the text format of sim/serialize.h.

#pragma once

#include <atomic>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

namespace xtest::cli {

/// Exit codes: every failure mode has its own code so scripts and CI can
/// distinguish a typo from a broken file from a failed simulation -- and
/// an operator interrupt (resumable from its checkpoint) from all three.
inline constexpr int kExitOk = 0;
inline constexpr int kExitUsage = 2;        // bad command line
inline constexpr int kExitIo = 3;           // cannot read/write a file
inline constexpr int kExitSim = 4;          // simulation/campaign failure
inline constexpr int kExitInterrupted = 5;  // SIGINT/SIGTERM, resumable
/// A supervised multi-process campaign completed, but at least one worker
/// shard exhausted its retries and was quarantined: the summary is
/// printed, unrecovered defects are reported as sim errors, and this code
/// tells wrappers the result is partial (graceful degradation, not a
/// crash).
inline constexpr int kExitDegraded = 6;

/// Bad command line: unknown flag value, missing operand, unparsable
/// number.  Mapped to kExitUsage at the run() boundary.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Filesystem failure: unreadable input, unwritable output.  Mapped to
/// kExitIo at the run() boundary.
struct IoError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Cooperative-shutdown flag: campaign subcommands poll it between defect
/// simulations, flush a final checkpoint, and exit with kExitInterrupted
/// when it goes true.  main() sets it from SIGINT/SIGTERM (it is lock-free
/// and async-signal-safe to store to); tests set it directly.  run() never
/// clears it -- callers that reuse the process (tests) reset it themselves.
std::atomic<bool>& interrupt_flag();

/// Runs one command; writes human output to `out`, errors to `err`.
/// Returns a process exit code.  Never lets an exception escape: every
/// failure is reported as a one-line "error: ..." on `err` plus the
/// matching exit code.
int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err);

}  // namespace xtest::cli

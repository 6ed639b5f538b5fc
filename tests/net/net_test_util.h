// Shared server construction for the net/replica test tiers.

#ifndef TOPKMON_TESTS_NET_NET_TEST_UTIL_H_
#define TOPKMON_TESTS_NET_NET_TEST_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "net/server.h"

namespace topkmon {
namespace testing {

/// Fast-tick server options for tests. TOPKMON_SERVER_THREADS (if set)
/// overrides the poll-loop count, which is how CI re-runs the whole
/// net/replica tier multi-threaded (e.g. under TSan with 4 loops)
/// without a parallel test matrix in the sources.
inline NetServerOptions TestServerOptions() {
  NetServerOptions opt;
  opt.poll_tick = std::chrono::milliseconds(1);
  if (const char* env = std::getenv("TOPKMON_SERVER_THREADS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) opt.server_threads = static_cast<std::size_t>(n);
  }
  return opt;
}

/// Raises a handshake flag (when non-null) as a test thread exits, on
/// every path — a failed ASSERT returns from the thread early — so a
/// thread waiting on the flag with AwaitFlag() is never stranded.
class RaiseOnExit {
 public:
  explicit RaiseOnExit(std::atomic<bool>* flag) : flag_(flag) {}
  ~RaiseOnExit() {
    if (flag_ != nullptr) flag_->store(true);
  }
  RaiseOnExit(const RaiseOnExit&) = delete;
  RaiseOnExit& operator=(const RaiseOnExit&) = delete;

 private:
  std::atomic<bool>* flag_;
};

/// Blocks until `flag` is raised.
inline void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace testing
}  // namespace topkmon

#endif  // TOPKMON_TESTS_NET_NET_TEST_UTIL_H_

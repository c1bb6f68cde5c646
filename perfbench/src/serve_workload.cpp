// serve_k16 / serve_k128: the real `dbn serve` daemon over loopback TCP.
//
// One single-threaded client drives two connections (TCP_NODELAY on its
// own sockets, blocking in poll/ppoll, never spinning): an untimed
// warm-up, a closed phase with a pipelined window per connection, another
// warm-up, then an open phase at a fixed total rate timed from each
// request's due time. Every answer is kept and verified after the timed
// phases against the Alg 2/3 quadratic scan, an oracle independent of the
// packed engine the daemon runs. The traced run adds a traced closed
// phase, metrics/1 probes around the untraced one, and in-process replays
// of the workload's frames through the codec and the batch engine.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/batch_route_engine.hpp"
#include "core/distance.hpp"
#include "core/path.hpp"
#include "debruijn/word.hpp"
#include "obs/json.hpp"
#include "serve/protocol.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dbn;
using namespace dbn::serve;

constexpr std::uint32_t kRadix = 2;
constexpr std::size_t kConnections = 2;
// Pipelined closed-loop window per connection. Deliberately > 1: a window
// of 1 would hide the daemon's Nagle/delayed-ACK stalls (io.stalls).
constexpr std::uint64_t kWindow = 16;
constexpr double kDistanceFrac = 0.25;  // 3:1 Route:Distance
constexpr std::uint64_t kStallNs = 10'000'000;
constexpr int kSetups = 5;
constexpr std::uint64_t kProbeId = ~0ull;
constexpr int kSeqBits = 48;
constexpr std::uint64_t kSeqMask = (1ull << kSeqBits) - 1;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::uint64_t kNoAnswer = ~0ull;
constexpr std::size_t kVerifyStride = 2;  // verification threads per conn

enum Phase : std::uint8_t {
  kWarmClosed,
  kClosed,
  kTracedClosed,
  kWarmOpen,
  kOpen,
};

struct Query {
  RequestType type;
  Word x;
  Word y;
};

// The request stream of one connection: a pure function of (seed, conn),
// so verification and the in-process replays regenerate it exactly.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t conn, std::size_t k)
      : rng_(Rng(seed).fork(conn)), k_(k) {}

  Query next() {
    const RequestType type = rng_.uniform01() < kDistanceFrac
                                 ? RequestType::Distance
                                 : RequestType::Route;
    Word x = word();
    Word y = word();
    return Query{type, std::move(x), std::move(y)};
  }

 private:
  Word word() {
    std::vector<Digit> digits(k_);
    std::uint64_t bits = 0;
    int left = 0;
    for (Digit& digit : digits) {
      if (left == 0) {
        bits = rng_();
        left = 64;
      }
      digit = static_cast<Digit>(bits & 1u);
      bits >>= 1;
      --left;
    }
    return Word(kRadix, std::move(digits));
  }

  Rng rng_;
  std::size_t k_;
};

// One timed stretch of one phase. Each phase runs as several rounds; qps
// is total Ok answers over the rounds' total time, stalls included; a
// median latency is the median over rounds and closed_p99_us the rounds'
// lower quartile (see lower_quartile() in common.hpp).
struct Round {
  Phase phase = kWarmClosed;
  std::uint64_t start_ns = 0;
  std::uint64_t last_answer_ns = 0;
  std::uint64_t ok = 0;

  double seconds() const {
    return static_cast<double>(last_answer_ns - start_ns) * 1e-9;
  }
  double qps() const {
    return seconds() > 0 ? static_cast<double>(ok) / seconds() : 0.0;
  }
};

// Total Ok answers over the total time of one phase's rounds.
double phase_qps(const std::deque<Round>& rounds, Phase phase) {
  double ok = 0;
  double seconds = 0;
  for (const Round& round : rounds) {
    if (round.phase == phase) {
      ok += static_cast<double>(round.ok);
      seconds += round.seconds();
    }
  }
  return seconds > 0 ? ok / seconds : 0.0;
}

// CPU time (utime + stime, in clock ticks) of each thread of `pid`.
std::vector<std::pair<pid_t, std::uint64_t>> thread_ticks(pid_t pid) {
  std::vector<std::pair<pid_t, std::uint64_t>> out;
  std::error_code ec;
  const std::filesystem::path dir =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    std::ifstream stat(entry.path() / "stat");
    std::string line;
    std::getline(stat, line);
    // After the ")" closing the thread name come fields 3 (state) onwards;
    // utime and stime are fields 14 and 15.
    const std::size_t close = line.rfind(')');
    if (close == std::string::npos) {
      continue;
    }
    std::istringstream fields(line.substr(close + 1));
    std::string field;
    std::uint64_t ticks = 0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
      if (i >= 14) {
        ticks += std::strtoull(field.c_str(), nullptr, 10);
      }
    }
    out.emplace_back(std::atoi(entry.path().filename().c_str()), ticks);
  }
  return out;
}

// Moves the run's busy threads — the daemon's, found by the CPU time they
// used during the warm-up, and the client's — on by one vCPU each round,
// each on a vCPU of its own while there are enough. The host's vCPUs
// differ in speed and change speed independently (README, Noise); the
// rotation gives every busy thread every vCPU in turn, so a run measures
// their average instead of whatever placement the scheduler settled on.
class ThreadRotation {
 public:
  ThreadRotation() {
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        cpus_.push_back(cpu);
      }
    }
  }
  ~ThreadRotation() { release(); }
  ThreadRotation(const ThreadRotation&) = delete;
  ThreadRotation& operator=(const ThreadRotation&) = delete;

  /// Keeps the daemon threads that used at least a fifth of the busiest
  /// one's CPU time since `before`, in creation (thread id) order, leaving
  /// one vCPU for the client.
  void find_busy(pid_t daemon,
                 const std::vector<std::pair<pid_t, std::uint64_t>>& before) {
    std::vector<std::pair<pid_t, std::uint64_t>> used = thread_ticks(daemon);
    std::uint64_t most = 0;
    for (auto& [tid, ticks] : used) {
      for (const auto& [old_tid, old_ticks] : before) {
        if (old_tid == tid) {
          ticks -= std::min(ticks, old_ticks);
        }
      }
      most = std::max(most, ticks);
    }
    busy_.clear();
    for (const auto& [tid, ticks] : used) {
      if (ticks > 0 && ticks * 5 >= most) {
        busy_.push_back(tid);
      }
    }
    std::sort(busy_.begin(), busy_.end());
    busy_.resize(std::min(busy_.size(), cpus_.size() - 1));
  }

  /// Places every busy thread one vCPU further on than last time.
  void next() {
    if (cpus_.size() < 2) {
      return;
    }
    for (std::size_t i = 0; i <= busy_.size(); ++i) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[(i + round_) % cpus_.size()], &one);
      // The client (this thread, id 0) takes the slot after the daemon's.
      ::sched_setaffinity(i < busy_.size() ? busy_[i] : 0, sizeof(one), &one);
    }
    ++round_;
  }

  /// Frees the client thread again, before it starts threads of its own.
  void release() {
    if (round_ > 0) {
      ::sched_setaffinity(0, sizeof(all_), &all_);
    }
  }

  std::size_t busy() const { return busy_.size(); }

 private:
  cpu_set_t all_{};
  std::vector<int> cpus_;
  std::vector<pid_t> busy_;
  std::size_t round_ = 0;
};

// Raw response payloads in fixed 1 MiB blocks: appending never moves what
// is stored, so the client never pauses to copy a grown buffer.
class AnswerLog {
 public:
  std::uint64_t append(std::string_view bytes) {
    if (blocks_.empty() || used_ + bytes.size() > kBlock) {
      blocks_.push_back(std::make_unique_for_overwrite<char[]>(kBlock));
      used_ = 0;
    }
    std::memcpy(blocks_.back().get() + used_, bytes.data(), bytes.size());
    const std::uint64_t at = (blocks_.size() - 1) * kBlock + used_;
    used_ += bytes.size();
    return at;
  }
  std::string_view at(std::uint64_t offset, std::size_t len) const {
    return {blocks_[offset / kBlock].get() + offset % kBlock, len};
  }

 private:
  static constexpr std::size_t kBlock = kMaxPayload;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t used_ = 0;
};

// What the client knows about one request, by sequence number.
struct Slot {
  std::uint64_t start_ns = 0;   // send time (closed) or due time (open)
  std::uint64_t sent_ns = 0;    // when its bytes were written
  std::uint64_t answer_ns = 0;  // 0 = not answered
  std::uint64_t answer_at = kNoAnswer;  // payload offset in the AnswerLog
  std::uint32_t answer_len = 0;
  std::uint32_t round = 0;
};

struct Conn {
  Conn(std::uint64_t seed, std::size_t index, std::size_t k)
      : index(index), stream(seed, index, k) {}
  ~Conn() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  int fd = -1;
  std::size_t index;
  RequestStream stream;
  FrameReader reader;
  std::string out;             // encoded, not yet written requests
  std::uint64_t sent = 0;      // next sequence number
  std::uint64_t flushed = 0;   // requests [flushed, sent) sit in `out`
  std::uint64_t outstanding = 0;
  // A deque, not a vector, for the same no-copy reason as AnswerLog.
  std::deque<Slot> slots;
  AnswerLog answers;

  std::string_view answer(std::uint64_t seq) const {
    return answers.at(slots[seq].answer_at, slots[seq].answer_len);
  }
};

// ---------------------------------------------------------------------------
// The daemon under test.

class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { kill_now(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Spawns `dbn serve 2 <k> --threads=1` and waits for its port file.
  /// Returns the spawn-to-publish time in seconds, or nullopt.
  std::optional<double> start(const Options& options, std::size_t k,
                              std::string& error) {
    port_file_ = options.workdir + "/serve.port";
    const std::string log = options.workdir + "/serve.log";
    ::unlink(port_file_.c_str());
    const std::string k_arg = std::to_string(k);
    const std::string port_arg = "--port-file=" + port_file_;
    std::vector<std::string> argv_s = {options.dbn_path, "serve",
                                       std::to_string(kRadix), k_arg,
                                       "--threads=1", "--port=0", port_arg};
    std::vector<char*> argv;
    for (std::string& s : argv_s) {
      argv.push_back(s.data());
    }
    argv.push_back(nullptr);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (log_fd < 0 || null_fd < 0) {
      error = "cannot open " + log;
      return std::nullopt;
    }
    const std::uint64_t t0 = now_ns();
    pid_ = ::fork();
    if (pid_ == 0) {
      // The daemon dies with the benchmark, even if the benchmark is killed.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(null_fd, STDIN_FILENO);
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(log_fd);
    ::close(null_fd);
    if (pid_ < 0) {
      error = "cannot fork the daemon";
      return std::nullopt;
    }
    const std::uint64_t deadline = t0 + 20'000'000'000ull;
    for (;;) {
      std::ifstream in(port_file_);
      unsigned port = 0;
      if (in && (in >> port) && port > 0 && port < 65536) {
        const std::uint64_t t1 = now_ns();
        port_ = static_cast<std::uint16_t>(port);
        return static_cast<double>(t1 - t0) * 1e-9;
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        error = "daemon exited before publishing its port (see " + log + ")";
        return std::nullopt;
      }
      if (now_ns() > deadline) {
        error = "timed out waiting for the daemon's port file";
        return std::nullopt;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// SIGTERM, then waits for the drain; true iff the daemon exited 0.
  bool stop() {
    if (pid_ < 0) {
      return false;
    }
    ::kill(pid_, SIGTERM);
    const bool clean = reap(10'000);
    ::unlink(port_file_.c_str());
    return clean;
  }

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  bool reap(int timeout_ms) {
    for (int waited = 0; waited < timeout_ms; ++waited) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill_now();
    return false;
  }

  void kill_now() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
  std::string port_file_;
};

// ---------------------------------------------------------------------------
// metrics/1 probe helpers (the daemon's serve.* registry over Stats).

struct Hist {
  double count = 0;
  double sum = 0;
  std::vector<double> bounds;
  std::vector<double> buckets;
};

const obs::JsonValue* find_metric(const obs::JsonValue& doc,
                                  std::string_view name) {
  const obs::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_array()) {
    return nullptr;
  }
  for (const obs::JsonValue& m : metrics->items) {
    if (m.string_at("name") == name) {
      return &m;
    }
  }
  return nullptr;
}

Hist histogram(const obs::JsonValue& doc, std::string_view name) {
  Hist h;
  const obs::JsonValue* m = find_metric(doc, name);
  if (m == nullptr) {
    return h;
  }
  h.count = m->number_at("count");
  h.sum = m->number_at("sum");
  if (const obs::JsonValue* b = m->find("bounds")) {
    for (const obs::JsonValue& v : b->items) {
      h.bounds.push_back(v.number);
    }
  }
  if (const obs::JsonValue* b = m->find("buckets")) {
    for (const obs::JsonValue& v : b->items) {
      h.buckets.push_back(v.number);
    }
  }
  return h;
}

double counter(const obs::JsonValue& doc, std::string_view name) {
  const obs::JsonValue* m = find_metric(doc, name);
  return m == nullptr ? 0.0 : m->number_at("count");
}

Hist delta(const Hist& after, const Hist& before) {
  Hist d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < d.buckets.size() && i < before.buckets.size();
       ++i) {
    d.buckets[i] -= before.buckets[i];
  }
  return d;
}

// Quantile of an upper-inclusive bucketed histogram, interpolated linearly
// inside the bucket that holds it (the overflow bucket reads as its floor).
double hist_quantile(const Hist& h, double q) {
  if (h.count <= 0) {
    return 0.0;
  }
  const double target = q * h.count;
  double seen = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double lo = i == 0 ? 0.0 : h.bounds[i - 1];
    if (i >= h.bounds.size()) {
      return lo;
    }
    if (seen + h.buckets[i] >= target && h.buckets[i] > 0) {
      return lo + (h.bounds[i] - lo) * (target - seen) / h.buckets[i];
    }
    seen += h.buckets[i];
  }
  return h.bounds.empty() ? 0.0 : h.bounds.back();
}

// ---------------------------------------------------------------------------
// The load generator.

class Client {
 public:
  Client(const Options& options, std::size_t k, SpanLog& spans)
      : options_(options), k_(k), spans_(spans) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      conns_.push_back(std::make_unique<Conn>(options.seed, c, k));
    }
  }

  bool connect(std::uint16_t port, std::string& error) {
    for (auto& conn : conns_) {
      conn->fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (conn->fd < 0) {
        error = "socket() failed";
        return false;
      }
      const int one = 1;
      ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port);
      if (::connect(conn->fd, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
        error = "cannot connect to 127.0.0.1:" + std::to_string(port);
        return false;
      }
      pfds_[conn->index] = pollfd{conn->fd, POLLIN, 0};
    }
    return true;
  }

  /// Keeps kWindow requests in flight per connection for `seconds`, then
  /// collects every outstanding answer.
  bool run_closed(Phase phase, double seconds) {
    quickack_ = false;
    const auto round = static_cast<std::uint32_t>(rounds_.size());
    Round& ps = rounds_.emplace_back();
    ps.phase = phase;
    ps.start_ns = now_ns();
    const std::uint64_t end_ns =
        ps.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    for (auto& conn : conns_) {
      fill(*conn, round);
      if (!flush(*conn, /*stamp=*/true)) {
        return false;
      }
    }
    for (;;) {
      const bool sending = now_ns() < end_ns;
      if (!sending && outstanding() == 0) {
        return true;
      }
      if (!wait_readable(sending ? end_ns : 0)) {
        return false;
      }
      for (auto& conn : conns_) {
        if ((pfds_[conn->index].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        if (!read_ready(*conn)) {
          return false;
        }
        if (now_ns() < end_ns) {
          fill(*conn, round);
          if (!flush(*conn, /*stamp=*/true)) {
            return false;
          }
        }
      }
    }
  }

  /// Sends at `rate` requests/s in total (alternating connections), each
  /// stamped with its due time, for `seconds`; then collects the answers.
  bool run_open(Phase phase, double seconds, double rate) {
    // The daemon's sockets lack TCP_NODELAY, so an answer can wait for the
    // client's delayed ACK until its next request on that connection: at
    // 1 200/s that put a round's median at ~0.65 or ~1.7 ms by chance. The
    // open loop ACKs at once (TCP_QUICKACK, re-armed after every read) and
    // times the daemon; the closed loop keeps default ACKs, so the defect
    // stays visible there (io.stalls, qps, closed_p99_us).
    quickack_ = true;
    const auto round = static_cast<std::uint32_t>(rounds_.size());
    Round& ps = rounds_.emplace_back();
    ps.phase = phase;
    ps.start_ns = now_ns();
    const double period_ns = 1e9 / rate;
    const auto due = [&](std::uint64_t i) {
      return ps.start_ns +
             static_cast<std::uint64_t>(static_cast<double>(i) * period_ns);
    };
    const std::uint64_t end_ns =
        ps.start_ns + static_cast<std::uint64_t>(seconds * 1e9);
    std::uint64_t next = 0;
    for (;;) {
      std::uint64_t now = now_ns();
      if (due(next) < end_ns) {
        while (due(next) <= now && due(next) < end_ns) {
          Conn& conn = *conns_[next % kConnections];
          append(conn, round, due(next));
          ++next;
        }
        for (auto& conn : conns_) {
          if (!flush(*conn, /*stamp=*/false)) {
            return false;
          }
        }
      } else if (outstanding() == 0) {
        return true;
      }
      now = now_ns();
      const std::uint64_t wake = due(next) < end_ns ? due(next) : 0;
      if (wake != 0 && wake <= now) {
        continue;
      }
      if (!wait_readable(wake)) {
        return false;
      }
      for (auto& conn : conns_) {
        if ((pfds_[conn->index].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
            !read_ready(*conn)) {
          return false;
        }
      }
    }
  }

  /// One Stats round trip on connection 0 while nothing is in flight;
  /// returns the parsed metrics/1 document.
  std::optional<obs::JsonValue> probe() {
    Conn& conn = *conns_[0];
    probe_body_.reset();
    std::string frame;
    encode_control_request(RequestType::Stats, kProbeId, frame);
    if (!send_all(conn.fd, frame)) {
      return std::nullopt;
    }
    const std::uint64_t deadline = now_ns() + 10'000'000'000ull;
    while (!probe_body_ && now_ns() < deadline) {
      if (!wait_readable(0)) {
        return std::nullopt;
      }
      if ((pfds_[0].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !read_ready(conn)) {
        return std::nullopt;
      }
    }
    if (!probe_body_) {
      return std::nullopt;
    }
    return obs::json_parse(*probe_body_);
  }

  /// Checks every answer against the oracle; counts attempts and failures.
  /// The daemon is stopped by now, so the Alg 2/3 scan (~10 us per query
  /// at k=16) runs on kVerifyStride threads per connection.
  void verify(Result& result) const {
    std::vector<Result> parts(kConnections * kVerifyStride);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kConnections; ++c) {
      for (std::size_t t = 0; t < kVerifyStride; ++t) {
        threads.emplace_back([this, c, t, &parts] {
          verify_part(*conns_[c], t, parts[c * kVerifyStride + t]);
        });
      }
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const Result& part : parts) {
      result.attempted += part.attempted;
      result.failed += part.failed;
      result.correct = result.correct && part.correct;
      for (const std::string& e : part.errors) {
        if (result.errors.size() < 8) {
          result.errors.push_back(e);
        }
      }
    }
  }

  const std::deque<Round>& rounds() const { return rounds_; }

  /// Start-to-answer times of one round's answered requests, in us.
  std::vector<double> latencies_us(std::uint32_t round) const {
    std::vector<double> out;
    for (const auto& conn : conns_) {
      for (const Slot& slot : conn->slots) {
        if (slot.round == round && slot.answer_ns != 0) {
          out.push_back(static_cast<double>(slot.answer_ns - slot.start_ns) *
                        1e-3);
        }
      }
    }
    return out;
  }

  /// How late the open-loop generator wrote each request, in us.
  std::vector<double> lateness_us(std::uint32_t round) const {
    std::vector<double> out;
    for (const auto& conn : conns_) {
      for (const Slot& slot : conn->slots) {
        if (slot.round == round) {
          out.push_back(static_cast<double>(slot.sent_ns - slot.start_ns) *
                        1e-3);
        }
      }
    }
    return out;
  }
  const Conn& conn(std::size_t i) const { return *conns_[i]; }
  const std::string& error() const { return error_; }

 private:
  // Verifies the requests seq = part, part + kVerifyStride, ... of `conn`
  // (the stream is regenerated in full; generation is cheap next to the
  // oracle).
  void verify_part(const Conn& conn, std::size_t part, Result& result) const {
    RequestStream stream(options_.seed, conn.index, k_);
    bool corrupt = options_.corrupt && conn.index == 0 && part == 0;
    for (std::uint64_t seq = 0; seq < conn.sent; ++seq) {
      const Query q = stream.next();
      if (seq % kVerifyStride != part) {
        continue;
      }
      ++result.attempted;
      const auto fail = [&](const std::string& what) {
        result.fail("conn " + std::to_string(conn.index) + " request " +
                    std::to_string(seq) + ": " + what);
      };
      if (conn.slots[seq].answer_at == kNoAnswer) {
        fail("no answer");
        continue;
      }
      DecodedResponse decoded = decode_response(conn.answer(seq));
      Response& r = decoded.response;
      if (decoded.error != DecodeError::None) {
        fail("undecodable answer");
        continue;
      }
      if (r.status == Status::Overloaded) {
        ++result.failed;  // shed by the daemon's bounded queue, not wrong
        continue;
      }
      if (r.status != Status::Ok || r.type != q.type) {
        fail("status " + std::string(status_name(r.status)));
        continue;
      }
      if (corrupt) {
        // Self-test: a wrong answer must trip the gate.
        corrupt = false;
        if (r.type == RequestType::Distance) {
          r.distance += 1;
        } else if (!r.hops.empty()) {
          r.hops.pop_back();
        } else {
          r.hops.push_back(Hop{ShiftType::Left, 0});
        }
      }
      const int expected = undirected_distance_quadratic(q.x, q.y);
      if (r.type == RequestType::Distance) {
        if (static_cast<int>(r.distance) != expected) {
          fail("distance " + std::to_string(r.distance) + " != D(X,Y) " +
               std::to_string(expected));
        }
        continue;
      }
      Word at = q.x;
      for (const Hop& hop : r.hops) {
        const Digit digit = hop.is_wildcard() ? 0 : hop.digit;
        if (hop.type == ShiftType::Left) {
          at.left_shift_inplace(digit);
        } else {
          at.right_shift_inplace(digit);
        }
      }
      if (at != q.y) {
        fail("route does not reach Y");
      } else if (static_cast<int>(r.hops.size()) != expected) {
        fail("route length " + std::to_string(r.hops.size()) +
             " != D(X,Y) " + std::to_string(expected));
      }
    }
  }

  std::uint64_t outstanding() const {
    std::uint64_t n = 0;
    for (const auto& conn : conns_) {
      n += conn->outstanding;
    }
    return n;
  }

  void append(Conn& conn, std::uint32_t round, std::uint64_t start_ns) {
    const Query q = conn.stream.next();
    const std::uint64_t seq = conn.sent++;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(conn.index) << kSeqBits) | seq;
    if (q.type == RequestType::Distance) {
      encode_distance_request(id, q.x, q.y, conn.out);
    } else {
      encode_route_request(id, q.x, q.y, conn.out);
    }
    Slot& slot = conn.slots.emplace_back();
    slot.start_ns = start_ns;
    slot.round = round;
    ++conn.outstanding;
  }

  void fill(Conn& conn, std::uint32_t round) {
    while (conn.outstanding < kWindow) {
      append(conn, round, 0);
    }
  }

  static bool send_all(int fd, std::string_view bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        return false;
      }
      done += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Writes the pending requests; `stamp` sets their start time to now (the
  // closed loop times from send, the open loop already holds due times).
  bool flush(Conn& conn, bool stamp) {
    if (conn.out.empty()) {
      return true;
    }
    const std::uint64_t t = now_ns();
    for (std::uint64_t s = conn.flushed; s < conn.sent; ++s) {
      conn.slots[s].sent_ns = t;
      if (stamp) {
        conn.slots[s].start_ns = t;
      }
    }
    conn.flushed = conn.sent;
    if (!send_all(conn.fd, conn.out)) {
      error_ = "send failed on conn " + std::to_string(conn.index);
      return false;
    }
    conn.out.clear();
    return true;
  }

  // Blocks until a socket is readable or `wake_ns` (0 = no deadline)
  // passes. Blocking, never spinning: the client must not take a core
  // from the daemon. Ten seconds without an answer is a failure.
  bool wait_readable(std::uint64_t wake_ns) {
    const std::uint64_t now = now_ns();
    std::uint64_t wait = 10'000'000'000ull;
    if (wake_ns != 0) {
      wait = wake_ns > now ? wake_ns - now : 0;
    }
    timespec ts{static_cast<time_t>(wait / 1'000'000'000ull),
                static_cast<long>(wait % 1'000'000'000ull)};
    for (pollfd& p : pfds_) {
      p.revents = 0;
    }
    const int ready = ::ppoll(pfds_.data(), pfds_.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) {
      error_ = "poll failed";
      return false;
    }
    if (ready == 0 && wake_ns == 0) {
      error_ = "no answer from the daemon for 10 s";
      return false;
    }
    return true;
  }

  bool read_ready(Conn& conn) {
    char buf[kReadChunk];
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (quickack_) {
      const int one = 1;
      ::setsockopt(conn.fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) {
      return true;
    }
    if (n <= 0) {
      error_ = "daemon closed conn " + std::to_string(conn.index);
      return false;
    }
    const std::uint64_t t = now_ns();
    conn.reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    for (;;) {
      const FrameReader::Result fr = conn.reader.next(payload_);
      if (fr == FrameReader::Result::NeedMore) {
        return true;
      }
      if (fr == FrameReader::Result::Error || payload_.size() < 10) {
        error_ = "framing error on conn " + std::to_string(conn.index);
        return false;
      }
      if (!on_answer(conn, t)) {
        return false;
      }
    }
  }

  // Only the serve/1 response header is read here (status, type, id);
  // bodies are decoded by verify() after the timed phases.
  bool on_answer(Conn& conn, std::uint64_t t) {
    std::uint64_t id = 0;
    std::memcpy(&id, payload_.data() + 2, sizeof(id));  // little-endian host
    if (id == kProbeId) {
      probe_body_ = decode_response(payload_).response.body;
      return true;
    }
    const std::uint64_t seq = id & kSeqMask;
    if ((id >> kSeqBits) != conn.index || seq >= conn.sent ||
        conn.slots[seq].answer_at != kNoAnswer) {
      error_ = "answer for a request never asked (id " + std::to_string(id) +
               ")";
      return false;
    }
    Slot& slot = conn.slots[seq];
    slot.answer_at = conn.answers.append(payload_);
    slot.answer_len = static_cast<std::uint32_t>(payload_.size());
    slot.answer_ns = t;
    --conn.outstanding;
    Round& ps = rounds_[slot.round];
    if (static_cast<Status>(payload_[0]) == Status::Ok) {
      ++ps.ok;
      ps.last_answer_ns = t;
    }
    if (ps.phase == kTracedClosed || ps.phase == kOpen) {
      spans_.add(Span{"client", "request", id, 0, slot.start_ns, t, 1});
    }
    return true;
  }

  const Options& options_;
  std::size_t k_;
  SpanLog& spans_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::array<pollfd, kConnections> pfds_{};
  std::deque<Round> rounds_;  // stable addresses while a round runs
  std::string payload_;
  std::optional<std::string> probe_body_;
  bool quickack_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// In-process replays for the traced run (the daemon is stopped by then, so
// they have the cores to themselves).

constexpr std::size_t kReplayCap = 200'000;
constexpr double kReplayBudgetS = 0.6;

// Per-frame cost of FrameReader + decode_request over the workload's own
// frames, fed in the closed loop's writes of kWindow frames: the size of
// the reads the daemon's reader threads see (FrameReader's cost grows with
// the bytes buffered behind each frame). -1 if a frame fails to decode.
double replay_decode(const std::string& wire,
                     const std::vector<std::size_t>& write_ends,
                     std::size_t frames, SpanLog& spans) {
  std::string payload;
  std::uint64_t call = 0;
  bool all_decoded = true;
  const double ns = median_pass_ns(kReplayBudgetS, [&](bool first) {
    FrameReader reader;
    std::size_t decoded = 0;
    std::size_t off = 0;
    for (const std::size_t end : write_ends) {
      const std::uint64_t c0 = now_ns();
      reader.feed(std::string_view(wire).substr(off, end - off));
      off = end;
      std::size_t in_write = 0;
      while (reader.next(payload) == FrameReader::Result::Frame) {
        decoded += decode_request(payload).error == DecodeError::None ? 1 : 0;
        ++in_write;
      }
      if (first) {
        spans.add(Span{"serve/protocol", "decode_write", ++call, 0, c0,
                       now_ns(), in_write});
      }
    }
    all_decoded = all_decoded && decoded == frames;
    return frames;
  });
  return all_decoded ? ns : -1.0;
}

struct Answer {
  RequestType type;
  std::uint64_t id;
  RoutingPath path;
  std::uint32_t distance;
};

// Per-answer cost of the response encoders over the recorded answers.
double replay_encode(const std::vector<Answer>& answers, SpanLog& spans) {
  constexpr std::size_t kChunk = 1024;
  std::string frame;
  std::uint64_t call = 0;
  return median_pass_ns(kReplayBudgetS, [&](bool first) {
    for (std::size_t base = 0; base < answers.size(); base += kChunk) {
      const std::uint64_t c0 = now_ns();
      const std::size_t end = std::min(answers.size(), base + kChunk);
      for (std::size_t i = base; i < end; ++i) {
        const Answer& a = answers[i];
        frame.clear();  // the dispatcher's per-response pattern
        if (a.type == RequestType::Route) {
          encode_route_response(a.id, a.path, frame);
        } else {
          encode_distance_response(a.id, a.distance, frame);
        }
      }
      if (first) {
        spans.add(Span{"serve/protocol", "encode_chunk", ++call, 0, c0,
                       now_ns(), end - base});
      }
    }
    return answers.size();
  });
}

// Per-query engine cost at the daemon's batch shape: the same backend,
// thread count and chunk, batches of `batch` queries.
double replay_engine(std::size_t k, RequestType type, std::size_t batch,
                     std::uint64_t seed, SpanLog& spans) {
  BatchRouteEngine engine(kRadix, k,
                          BatchRouteOptions{.backend = BatchBackend::BidiEngine,
                                            .threads = 1,
                                            .chunk = 64,
                                            .cache_entries = 0,
                                            .trace_routes = false});
  // The workload's own pairs, in stream order, filtered to this type.
  RequestStream stream(seed, 0, k);
  const std::uint64_t budget_end =
      now_ns() + static_cast<std::uint64_t>(kReplayBudgetS * 1e9);
  std::vector<RouteQuery> queries;
  std::vector<RoutingPath> paths;
  std::uint64_t busy_ns = 0;
  std::size_t done = 0;
  std::uint64_t call = 0;
  bool warmed = false;
  while (now_ns() < budget_end || done == 0) {
    queries.clear();
    while (queries.size() < batch) {
      Query q = stream.next();
      if (q.type == type) {
        queries.push_back(RouteQuery{std::move(q.x), std::move(q.y)});
      }
    }
    const std::uint64_t t0 = now_ns();
    std::size_t sink = 0;
    if (type == RequestType::Route) {
      engine.route_batch_into(queries, paths);
      sink = paths.size();
    } else {
      sink = engine.distance_batch(queries).size();
    }
    const std::uint64_t t1 = now_ns();
    if (sink != queries.size()) {
      return -1.0;
    }
    spans.add(Span{"engine",
                   type == RequestType::Route ? "route_batch_into"
                                              : "distance_batch",
                   ++call, 0, t0, t1, queries.size()});
    if (!warmed) {
      warmed = true;  // first batch sizes the arenas
      continue;
    }
    busy_ns += t1 - t0;
    done += queries.size();
  }
  return static_cast<double>(busy_ns) / static_cast<double>(done);
}

}  // namespace

Result run_serve(const Options& options, std::size_t k, double open_rate) {
  Result result;
  SpanLog spans(options.trace);
  ::prctl(PR_SET_TIMERSLACK, 1000UL);  // ~1 us ppoll precision (open loop)

  // Set-up: spawn the daemon several times and keep the median; the last
  // one serves the workload.
  std::vector<double> setups;
  auto daemon = std::make_unique<Daemon>();
  const int n_setups = options.tiny ? 2 : kSetups;
  for (int i = 0; i < n_setups; ++i) {
    if (i > 0) {
      if (!daemon->stop()) {
        result.fail("set-up daemon did not drain cleanly");
        return result;
      }
      daemon = std::make_unique<Daemon>();
    }
    std::string error;
    const std::optional<double> s = daemon->start(options, k, error);
    if (!s) {
      result.fail(error);
      return result;
    }
    setups.push_back(*s);
  }

  Client client(options, k, spans);
  std::string error;
  if (!client.connect(daemon->port(), error)) {
    result.fail(error);
    return result;
  }

  // Half the time closed, half open, each as rounds of about a second. The
  // traced run has three phases (closed, traced closed, open) and no
  // bounds on its metrics, so it runs half as many rounds.
  const double phase_s = options.seconds / (options.trace ? 4.0 : 2.0);
  const int rounds = std::max(1, static_cast<int>(phase_s));
  const double round_s = phase_s / rounds;
  const double warm_s = std::min(0.5, options.seconds / 10.0);
  std::optional<obs::JsonValue> before;
  std::optional<obs::JsonValue> after;
  std::optional<obs::JsonValue> final_probe;
  ThreadRotation placement;
  const auto idle_ticks = thread_ticks(daemon->pid());
  bool ok = client.run_closed(kWarmClosed, warm_s);
  placement.find_busy(daemon->pid(), idle_ticks);
  if (ok && options.trace) {
    before = client.probe();
    ok = before.has_value();
  }
  for (int r = 0; ok && r < rounds; ++r) {
    placement.next();
    ok = client.run_closed(kClosed, round_s);
  }
  if (ok && options.trace) {
    after = client.probe();
    ok = after.has_value();
    for (int r = 0; ok && r < rounds; ++r) {
      placement.next();
      ok = client.run_closed(kTracedClosed, round_s);
    }
  }
  ok = ok && client.run_open(kWarmOpen, warm_s, open_rate);
  for (int r = 0; ok && r < rounds; ++r) {
    placement.next();
    ok = client.run_open(kOpen, round_s, open_rate);
  }
  placement.release();
  if (ok && options.trace) {
    final_probe = client.probe();
    ok = final_probe.has_value();
  }
  const double rss_mb = peak_rss_mb(daemon->pid());
  if (!ok) {
    result.fail(client.error().empty() ? "metrics/1 probe failed"
                                       : client.error());
  }
  if (!daemon->stop()) {
    result.fail("daemon did not drain and exit 0 after SIGTERM");
  }
  if (!ok) {
    return result;
  }

  // Correctness, after the timed phases so it never throttles the client.
  const std::uint64_t verify_start = now_ns();
  client.verify(result);
  std::fprintf(stderr, "perfbench: verified %llu answers in %.2f s\n",
               static_cast<unsigned long long>(result.attempted),
               static_cast<double>(now_ns() - verify_start) * 1e-9);
  if (!result.correct) {
    return result;
  }

  // Per-round latency figures.
  std::vector<double> qps_r;
  std::vector<double> p50_r;
  std::vector<double> p99_r;
  std::vector<double> open_r;
  std::vector<double> lateness;
  std::uint64_t stalls = 0;
  std::size_t closed_answers = 0;
  for (std::uint32_t i = 0; i < client.rounds().size(); ++i) {
    const Round& round = client.rounds()[i];
    std::vector<double> lat = client.latencies_us(i);
    if (round.phase == kClosed) {
      closed_answers += lat.size();
      qps_r.push_back(round.qps());
      p50_r.push_back(quantile(lat, 0.5));
      p99_r.push_back(quantile(lat, 0.99));
      // A stall: 10 ms beyond the round's median, which at k=128 is itself
      // over 10 ms of queueing behind the window.
      stalls += static_cast<std::uint64_t>(
          lat.end() -
          std::upper_bound(lat.begin(), lat.end(),
                           p50_r.back() + static_cast<double>(kStallNs) * 1e-3));
    } else if (round.phase == kOpen) {
      open_r.push_back(quantile(lat, 0.5));
      const std::vector<double> late = client.lateness_us(i);
      lateness.insert(lateness.end(), late.begin(), late.end());
    }
  }
  for (std::size_t r = 0; r < qps_r.size(); ++r) {
    std::fprintf(stderr,
                 "perfbench: round %zu: qps %.0f closed p50 %.1f us p99 %.1f "
                 "us, open p50 %.1f us\n",
                 r, qps_r[r], p50_r[r], p99_r[r],
                 r < open_r.size() ? open_r[r] : 0.0);
  }
  const double qps = phase_qps(client.rounds(), kClosed);
  const double closed_p50 = median(p50_r);
  result.add("qps", qps, "1/s");
  result.add("closed_p50_us", closed_p50, "us");
  result.add("closed_p99_us", lower_quartile(p99_r), "us");
  result.add("open_p50_us", median(open_r), "us");
  result.add("setup_s", median(setups), "s");
  result.add("peak_rss_mb", rss_mb, "MiB");
  std::fprintf(stderr,
               "perfbench: %d rounds of %.2f s; closed %zu answers, %llu "
               "stalled; open at %.0f/s; %zu busy daemon threads rotated\n",
               rounds, round_s, closed_answers,
               static_cast<unsigned long long>(stalls), open_rate,
               placement.busy());
  if (!options.trace) {
    return result;
  }

  // --- per-layer metrics -------------------------------------------------
  const Hist lat = delta(histogram(*after, "serve.latency_us"),
                         histogram(*before, "serve.latency_us"));
  const Hist batch = delta(histogram(*after, "serve.batch_size"),
                           histogram(*before, "serve.batch_size"));
  const double batch_mean = batch.count > 0 ? batch.sum / batch.count : 1.0;
  const double server_p50 = hist_quantile(lat, 0.5);
  result.add("server.batch_mean", batch_mean, "count");
  result.add("server.p50_us", server_p50, "us");
  result.add("server.p99_us", hist_quantile(lat, 0.99), "us");
  result.add("server.shed", counter(*final_probe, "serve.rejected_overload"),
             "count");
  result.add("io.wire_p50_us", closed_p50 - server_p50, "us");
  result.add("io.stalls", static_cast<double>(stalls), "count");
  result.add("client.lateness_p99_us", quantile(lateness, 0.99), "us");
  result.add("trace.overhead",
             phase_qps(client.rounds(), kTracedClosed) / qps, "ratio");

  // Codec replays over the workload's own frames and answers.
  const Conn& conn0 = client.conn(0);
  const std::size_t n_frames =
      static_cast<std::size_t>(std::min<std::uint64_t>(conn0.sent, kReplayCap));
  std::string wire;
  std::vector<std::size_t> write_ends;
  std::vector<Answer> answers;
  answers.reserve(n_frames);
  {
    RequestStream stream(options.seed, 0, k);
    for (std::size_t seq = 0; seq < n_frames; ++seq) {
      const Query q = stream.next();
      const std::uint64_t id = seq;
      if (q.type == RequestType::Distance) {
        encode_distance_request(id, q.x, q.y, wire);
      } else {
        encode_route_request(id, q.x, q.y, wire);
      }
      if ((seq + 1) % kWindow == 0 || seq + 1 == n_frames) {
        write_ends.push_back(wire.size());
      }
      const DecodedResponse d = decode_response(conn0.answer(seq));
      answers.push_back(Answer{d.response.type, d.response.id,
                               RoutingPath(d.response.hops),
                               d.response.distance});
    }
  }
  const double decode_ns = replay_decode(wire, write_ends, n_frames, spans);
  const double encode_ns = replay_encode(answers, spans);
  if (decode_ns < 0) {
    result.fail("a replayed request frame failed to decode");
  }
  result.add("protocol.decode_ns", decode_ns, "ns");
  result.add("protocol.encode_ns", encode_ns, "ns");

  // Engine replays at the daemon's observed mean batch, split by the mix.
  const auto part = [&](double frac) {
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(batch_mean * frac)));
  };
  const double route_ns = replay_engine(k, RequestType::Route,
                                        part(1.0 - kDistanceFrac),
                                        options.seed, spans);
  const double distance_ns = replay_engine(
      k, RequestType::Distance, part(kDistanceFrac), options.seed, spans);
  if (route_ns < 0 || distance_ns < 0) {
    result.fail("engine replay returned a short batch");
  }
  result.add("engine.route_ns", route_ns, "ns");
  result.add("engine.distance_ns", distance_ns, "ns");
  const double engine_ns_per_request =
      (1.0 - kDistanceFrac) * route_ns + kDistanceFrac * distance_ns;
  result.add("engine.share", engine_ns_per_request * 1e-9 * qps, "ratio");

  const std::string trace_path =
      options.workdir + "/trace-" + options.workload + ".csv";
  if (!spans.write(trace_path)) {
    result.fail("cannot write " + trace_path);
  }
  std::fprintf(stderr, "perfbench: %zu spans written to %s\n", spans.size(),
               trace_path.c_str());
  return result;
}

}  // namespace perfbench

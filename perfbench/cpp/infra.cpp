#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <fstream>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sstream>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

namespace {

const Clock::time_point g_start = Clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

std::string num(double v) {
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// ------------------------------------------------------------------ JSON

const Json* Json::get(std::string_view key) const {
  for (const auto& [k, v] : obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json* Json::at(std::string_view path) const {
  const Json* cur = this;
  while (cur != nullptr && !path.empty()) {
    const std::size_t dot = path.find('.');
    cur = cur->get(path.substr(0, dot));
    path = dot == std::string_view::npos ? std::string_view()
                                         : path.substr(dot + 1);
  }
  return cur;
}

double Json::number(std::string_view path, double fallback) const {
  const Json* v = at(path);
  return v != nullptr && v->kind == kNum ? v->n : fallback;
}

std::string Json::str(std::string_view path) const {
  const Json* v = at(path);
  return v != nullptr && v->kind == kStr ? v->s : std::string();
}

namespace {

struct Parser {
  std::string_view t;
  std::size_t i = 0;

  void ws() {
    while (i < t.size() && (t[i] == ' ' || t[i] == '\n' || t[i] == '\t' ||
                            t[i] == '\r')) {
      ++i;
    }
  }
  bool lit(std::string_view w) {
    if (t.substr(i, w.size()) != w) return false;
    i += w.size();
    return true;
  }
  bool string(std::string& out) {
    if (i >= t.size() || t[i] != '"') return false;
    ++i;
    while (i < t.size() && t[i] != '"') {
      if (t[i] == '\\') {
        if (++i >= t.size()) return false;
        switch (t[i]) {
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': out += '?'; i += 4; break;  // not needed for checks
          default: out += t[i];
        }
        ++i;
      } else {
        out += t[i++];
      }
    }
    if (i >= t.size()) return false;
    ++i;
    return true;
  }
  bool value(Json& v, int depth) {
    if (depth > 64) return false;
    ws();
    if (i >= t.size()) return false;
    const char c = t[i];
    if (c == '{') {
      v.kind = Json::kObj;
      ++i;
      ws();
      if (i < t.size() && t[i] == '}') return ++i, true;
      for (;;) {
        ws();
        std::string key;
        if (!string(key)) return false;
        ws();
        if (i >= t.size() || t[i] != ':') return false;
        ++i;
        Json child;
        if (!value(child, depth + 1)) return false;
        v.obj.emplace_back(std::move(key), std::move(child));
        ws();
        if (i < t.size() && t[i] == ',') { ++i; continue; }
        if (i < t.size() && t[i] == '}') return ++i, true;
        return false;
      }
    }
    if (c == '[') {
      v.kind = Json::kArr;
      ++i;
      ws();
      if (i < t.size() && t[i] == ']') return ++i, true;
      for (;;) {
        Json child;
        if (!value(child, depth + 1)) return false;
        v.arr.push_back(std::move(child));
        ws();
        if (i < t.size() && t[i] == ',') { ++i; continue; }
        if (i < t.size() && t[i] == ']') return ++i, true;
        return false;
      }
    }
    if (c == '"') {
      v.kind = Json::kStr;
      return string(v.s);
    }
    if (lit("true")) { v.kind = Json::kBool; v.b = true; return true; }
    if (lit("false")) { v.kind = Json::kBool; return true; }
    if (lit("null")) return true;
    v.kind = Json::kNum;
    const auto r = std::from_chars(t.data() + i, t.data() + t.size(), v.n);
    if (r.ec != std::errc()) {
      // inf / nan spellings are not JSON; treat them as unparseable.
      return false;
    }
    i = static_cast<std::size_t>(r.ptr - t.data());
    return true;
  }
};

}  // namespace

std::optional<Json> parse_json(std::string_view text) {
  Parser p{text};
  Json v;
  if (!p.value(v, 0)) return std::nullopt;
  p.ws();
  if (p.i != text.size()) return std::nullopt;
  return v;
}

// ------------------------------------------------------------------ spans

Spans g_spans;

int Spans::begin(std::string name, int parent, std::string id) {
  if (!enabled) return -1;
  spans_.push_back(Span{std::move(name), now_s(), -1.0, parent, std::move(id)});
  return static_cast<int>(spans_.size()) - 1;
}

void Spans::end(int span) {
  if (span >= 0) spans_[static_cast<std::size_t>(span)].end = now_s();
}

// ------------------------------------------------------------------ wire

Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

bool connect_conn(Conn& c, std::uint16_t port, bool binary) {
  c.binary = binary;
  c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (c.fd < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return false;
  }
  int one = 1;
  ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL) | O_NONBLOCK);
  return true;
}

void Batch::add_owned(std::string line, int tag, const char* klass) {
  owned.push_back(std::move(line));
  add(&owned.back(), tag, klass);
}

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  for (int s = 0; s < 32; s += 8) out.push_back(static_cast<char>(v >> s));
}

std::uint32_t get_u32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return b[0] | (b[1] << 8) | (b[2] << 16) | (static_cast<std::uint32_t>(b[3]) << 24);
}

void encode(Conn& c, const Batch& b) {
  if (!c.binary) {
    for (const std::string* l : b.lines) {
      c.wbuf += *l;
      c.wbuf += '\n';
    }
    return;
  }
  std::uint32_t payload = 0;
  for (const std::string* l : b.lines) {
    payload += 4 + static_cast<std::uint32_t>(l->size());
  }
  c.wbuf += "\xAB" "IPS";
  c.wbuf.push_back(1);  // version
  c.wbuf.push_back(0);  // flags
  c.wbuf.push_back(static_cast<char>(b.lines.size() & 0xFF));
  c.wbuf.push_back(static_cast<char>(b.lines.size() >> 8));
  put_u32(c.wbuf, payload);
  for (const std::string* l : b.lines) {
    put_u32(c.wbuf, static_cast<std::uint32_t>(l->size()));
    c.wbuf += *l;
  }
}

/// Moves every complete record out of the read buffer; false on a framing
/// error or an error frame.
bool decode(Conn& c, std::vector<std::string>& out) {
  std::size_t off = 0;
  if (!c.binary) {
    std::size_t nl;
    while ((nl = c.rbuf.find('\n', off)) != std::string::npos) {
      out.emplace_back(c.rbuf, off, nl - off);
      off = nl + 1;
    }
  } else {
    while (c.rbuf.size() - off >= 12) {
      const char* h = c.rbuf.data() + off;
      if (std::memcmp(h, "\xAB" "IPS", 4) != 0 || (h[5] & 1) != 0) return false;
      const std::size_t count =
          static_cast<unsigned char>(h[6]) |
          (static_cast<std::size_t>(static_cast<unsigned char>(h[7])) << 8);
      const std::size_t len = get_u32(h + 8);
      if (c.rbuf.size() - off < 12 + len) break;
      std::size_t p = off + 12;
      for (std::size_t k = 0; k < count; ++k) {
        const std::size_t rl = get_u32(c.rbuf.data() + p);
        out.emplace_back(c.rbuf, p + 4, rl);
        p += 4 + rl;
      }
      off += 12 + len;
    }
  }
  c.rbuf.erase(0, off);
  return true;
}

bool flush(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd, c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
    c.woff += static_cast<std::size_t>(n);
  }
  c.wbuf.clear();
  c.woff = 0;
  return true;
}

}  // namespace

bool closed_loop(const std::vector<Conn*>& conns,
                 const std::function<bool(std::size_t, Batch&)>& next,
                 const std::function<void(std::size_t, Batch&)>& done,
                 const char* span_name, int span_parent,
                 const std::function<void(std::size_t)>& sent) {
  const std::size_t n = conns.size();
  std::vector<Batch> slot(n);
  std::vector<bool> active(n, false);
  std::vector<int> span(n, -1);
  std::size_t seq = 0;
  auto launch = [&](std::size_t i) {
    slot[i] = Batch();
    if (!next(i, slot[i])) return true;
    if (slot[i].lines.empty()) return true;
    slot[i].t_send = now_s();
    if (g_spans.enabled) {
      std::string name(span_name), id("b");
      name += conns[i]->binary ? ".binary" : ".json";
      id += std::to_string(seq++);
      span[i] = g_spans.begin(std::move(name), span_parent, std::move(id));
    }
    encode(*conns[i], slot[i]);
    active[i] = true;
    if (!flush(*conns[i])) return false;
    if (sent) sent(i);
    return true;
  };
  for (std::size_t i = 0; i < n; ++i) {
    if (!launch(i)) return false;
  }
  std::vector<std::string> recs;
  for (;;) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> idx;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      short ev = POLLIN;
      if (!conns[i]->wbuf.empty()) ev |= POLLOUT;
      fds.push_back(pollfd{conns[i]->fd, ev, 0});
      idx.push_back(i);
    }
    if (fds.empty()) return true;
    const int rc = ::poll(fds.data(), fds.size(), 120000);
    if (rc <= 0) {
      if (rc < 0 && errno == EINTR) continue;
      std::fprintf(stderr, "perfbench: no response within 120 s\n");
      return false;
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      const std::size_t i = idx[k];
      Conn& c = *conns[i];
      if ((fds[k].revents & POLLOUT) != 0 && !flush(c)) return false;
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char buf[1 << 16];
      for (;;) {
        const ssize_t got = ::recv(c.fd, buf, sizeof buf, 0);
        if (got > 0) {
          c.rbuf.append(buf, static_cast<std::size_t>(got));
          continue;
        }
        if (got == 0) {
          std::fprintf(stderr, "perfbench: daemon closed the connection\n");
          return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        return false;
      }
      recs.clear();
      if (!decode(c, recs)) {
        std::fprintf(stderr, "perfbench: framing error from daemon\n");
        return false;
      }
      const double t = now_s();
      Batch& b = slot[i];
      for (std::string& r : recs) {
        if (b.resp.size() == b.lines.size()) return false;  // unasked-for
        b.resp.push_back(std::move(r));
        b.t_recv.push_back(t);
      }
      if (b.resp.size() == b.lines.size()) {
        g_spans.end(span[i]);
        active[i] = false;
        // The next batch goes out before this one is checked, so the
        // benchmark's own checking never leaves a connection idle.
        Batch answered = std::move(b);
        if (!launch(i)) return false;
        done(i, answered);
      }
    }
  }
}

std::optional<std::vector<std::string>> call(Conn& c,
                                             const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  bool sent = false;
  const bool ok = closed_loop(
      {&c},
      [&](std::size_t, Batch& b) {
        if (sent) return false;
        sent = true;
        for (const std::string& l : lines) b.add(&l, 0, "call");
        return true;
      },
      [&](std::size_t, Batch& b) { out = std::move(b.resp); }, "call");
  if (!ok || out.size() != lines.size()) return std::nullopt;
  return out;
}

// ------------------------------------------------------------------ daemons

namespace {

constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];
char g_temp_path[4096];
char g_temp_parent_path[4096];

void track(pid_t pid, bool add) {
  for (auto& slot : g_children) {
    pid_t expect = add ? 0 : pid;
    if (slot.compare_exchange_strong(expect, add ? pid : 0)) return;
  }
}

bool read_lines(Daemon& d, int timeout_ms, bool until_eof,
                const char* until_prefix) {
  const double deadline = now_s() + timeout_ms / 1000.0;
  for (;;) {
    if (until_prefix != nullptr) {
      for (const std::string& l : d.lines) {
        if (l.rfind(until_prefix, 0) == 0) return true;
      }
    }
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd p{d.out_fd, POLLIN, 0};
    const int rc = ::poll(&p, 1, static_cast<int>(left * 1000) + 1);
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char buf[4096];
    const ssize_t got = ::read(d.out_fd, buf, sizeof buf);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return until_eof;
    d.partial.append(buf, static_cast<std::size_t>(got));
    std::size_t nl;
    while ((nl = d.partial.find('\n')) != std::string::npos) {
      d.lines.push_back(d.partial.substr(0, nl));
      d.partial.erase(0, nl + 1);
    }
  }
}

void print_stderr_tail(const Daemon& d) {
  std::ifstream in(temp_dir() + "/" + d.name + ".stderr");
  std::string line;
  while (std::getline(in, line)) {
    std::fprintf(stderr, "  %s stderr: %s\n", d.name.c_str(), line.c_str());
  }
}

}  // namespace

bool start_daemon(Daemon& d, const std::string& name,
                  const std::vector<std::string>& argv) {
  d = Daemon();
  d.name = name;
  const std::string errlog = temp_dir() + "/" + name + ".stderr";
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  int pipefd[2];
  if (::pipe2(pipefd, O_CLOEXEC) != 0) return false;
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    // The daemon dies with the benchmark, even when the benchmark is
    // killed outright.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    sigset_t none;
    sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::dup2(pipefd[1], 1);
    const int err = ::open(errlog.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err >= 0) ::dup2(err, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(pipefd[1]);
  track(pid, true);
  d.pid = pid;
  d.out_fd = pipefd[0];
  if (!read_lines(d, 30000, false, (name.substr(0, 6) == "router"
                                        ? "ipso_router: listening on"
                                        : "ipso_serve: listening on"))) {
    std::fprintf(stderr, "perfbench: %s did not start\n", name.c_str());
    print_stderr_tail(d);
    return false;
  }
  for (const std::string& l : d.lines) {
    const std::size_t at = l.find("listening on ");
    if (at == std::string::npos) continue;
    const std::size_t colon = l.find(':', at + 13);
    d.port = static_cast<std::uint16_t>(std::atoi(l.c_str() + colon + 1));
  }
  return d.port != 0;
}

bool stop_daemon(Daemon& d) {
  if (d.pid <= 0) return true;
  ::kill(d.pid, SIGTERM);
  bool ok = read_lines(d, 60000, true, nullptr);
  if (!ok) ::kill(d.pid, SIGKILL);
  int status = 0;
  while (::waitpid(d.pid, &status, 0) < 0 && errno == EINTR) {
  }
  track(d.pid, false);
  ::close(d.out_fd);
  d.pid = -1;
  d.out_fd = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "perfbench: %s exited abnormally (status %d)\n",
                 d.name.c_str(), status);
    print_stderr_tail(d);
    ok = false;
  }
  return ok;
}

std::string daemon_line(const Daemon& d, const std::string& prefix) {
  for (const std::string& l : d.lines) {
    if (l.rfind(prefix, 0) == 0) return l;
  }
  return {};
}

double line_field(const std::string& line, const std::string& name) {
  std::size_t at = 0;
  while ((at = line.find(name + "=", at)) != std::string::npos) {
    if (at == 0 || line[at - 1] == ' ' || line[at - 1] == '(') {
      return std::atof(line.c_str() + at + name.size() + 1);
    }
    at += name.size();
  }
  return -1.0;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(in)), {});
  const std::size_t rp = s.rfind(')');
  if (rp == std::string::npos) return 0.0;
  std::istringstream fields(s.substr(rp + 2));
  std::string f;
  double utime = 0, stime = 0;
  for (int k = 3; k <= 15 && fields >> f; ++k) {
    if (k == 14) utime = std::atof(f.c_str());
    if (k == 15) stime = std::atof(f.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_hwm_mib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

// ------------------------------------------------------------------ temp dir

namespace {

std::string g_temp;
std::string g_temp_parent;

/// Recursive removal with raw syscalls only, so the fatal-signal path may
/// run it.
void rm_tree_at(int parent, const char* name, int depth) {
  if (depth > 8) return;
  const int fd = ::openat(parent, name, O_RDONLY | O_DIRECTORY | O_NOFOLLOW);
  if (fd < 0) {
    ::unlinkat(parent, name, 0);
    return;
  }
  alignas(8) char buf[4096];
  for (;;) {
    const long n = ::syscall(SYS_getdents64, fd, buf, sizeof buf);
    if (n <= 0) break;
    for (long off = 0; off < n;) {
      struct Dirent {
        unsigned long long ino;
        long long off;
        unsigned short reclen;
        unsigned char type;
        char name[1];
      };
      const auto* e = reinterpret_cast<const Dirent*>(buf + off);
      off += e->reclen;
      if (std::strcmp(e->name, ".") == 0 || std::strcmp(e->name, "..") == 0) {
        continue;
      }
      if (e->type == 4 /* DT_DIR */) {
        rm_tree_at(fd, e->name, depth + 1);
      } else {
        ::unlinkat(fd, e->name, 0);
      }
    }
  }
  ::close(fd);
  ::unlinkat(parent, name, AT_REMOVEDIR);
}

extern "C" void on_fatal_signal(int sig) {
  for (auto& slot : g_children) {
    const pid_t pid = slot.load();
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
  if (g_temp_path[0] != '\0') {
    rm_tree_at(AT_FDCWD, g_temp_path, 0);
    ::rmdir(g_temp_parent_path);  // only succeeds once it is empty
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const std::string& temp_dir() { return g_temp; }

void remove_temp_dir() {
  if (g_temp.empty()) return;
  std::error_code ec;
  std::filesystem::remove_all(g_temp, ec);
  g_temp_path[0] = '\0';
  // The parent holds only run directories; drop it once it is empty.
  std::filesystem::remove(g_temp_parent, ec);
}

void install_exit_handlers() {
  g_temp_parent = std::filesystem::current_path() / ".bench_tmp";
  std::error_code ec;
  std::filesystem::create_directories(g_temp_parent, ec);
  // Sweep run directories whose process no longer exists (it was killed
  // with SIGKILL, the one exit path that cannot clean up after itself).
  for (const auto& e : std::filesystem::directory_iterator(g_temp_parent, ec)) {
    const std::string n = e.path().filename();
    if (n.rfind("run-", 0) != 0) continue;
    const pid_t pid = std::atoi(n.c_str() + 4);
    if (pid > 0 && ::kill(pid, 0) != 0 && errno == ESRCH) {
      std::filesystem::remove_all(e.path(), ec);
    }
  }
  g_temp = (std::filesystem::path(g_temp_parent) /
            ("run-" + std::to_string(::getpid())))
               .string();
  std::filesystem::create_directories(g_temp, ec);
  std::snprintf(g_temp_path, sizeof g_temp_path, "%s", g_temp.c_str());
  std::snprintf(g_temp_parent_path, sizeof g_temp_parent_path, "%s",
                g_temp_parent.c_str());
  for (int sig : {SIGTERM, SIGINT, SIGHUP, SIGQUIT, SIGABRT, SIGSEGV}) {
    ::signal(sig, on_fatal_signal);
  }
  std::atexit([] {
    for (auto& slot : g_children) {
      const pid_t pid = slot.load();
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
      }
    }
    remove_temp_dir();
  });
}

// ------------------------------------------------------------------ result

void Result::wrong(const std::string& what) {
  correct = false;
  if (errors.size() < 20) errors.push_back(what);
}

void Result::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 20) errors.push_back("failed: " + what);
}

void Timed::note(const Batch& b) {
  for (std::size_t i = 0; i < b.resp.size(); ++i) {
    const double ms = (b.t_recv[i] - b.t_send) * 1e3;
    lat_ms.push_back(ms);
    lat_by_class[b.cls[i]].push_back(ms);
  }
  responses += b.resp.size();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void end_to_end(Result& r, double setup_s, const Timed& t, double rss_mib) {
  const double wall = t.t1 - t.t0;
  const double n = static_cast<double>(std::max<std::uint64_t>(t.responses, 1));
  r.metric("setup_s", setup_s, "s");
  r.metric("throughput_rps", n / wall, "req/s");
  r.metric("latency_p50_ms", median(t.lat_ms), "ms");
  r.metric("cpu_ms_per_req", t.cpu_s * 1e3 / n, "ms");
  r.metric("peak_rss_mib", rss_mib, "MiB");
  for (const auto& [cls, v] : t.lat_by_class) {
    // p99 needs at least ten samples beyond it to be a tail.
    const bool tail = v.size() >= 1000;
    std::fprintf(stderr,
                 "perfbench: class %-8s n=%-7zu p50=%.3f ms %s%.3f ms\n",
                 cls.c_str(), v.size(), median(v), tail ? "p99=" : "p90=",
                 quantile(v, tail ? 0.99 : 0.9));
  }
}

}  // namespace perfbench

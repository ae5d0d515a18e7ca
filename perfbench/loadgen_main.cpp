// perfbench_loadgen: drives a running probft_node --smr cluster with the
// open-loop generator in loadgen.hpp and writes the operation history.
//
//   perfbench_loadgen --servers 127.0.0.1:9101,...  --seed S
//       --steps RATE:SECONDS[,RATE:SECONDS...] [--read-frac F]
//       [--prefill 0|1] [--kill-pid PID --kill-at-ms MS]
//       [--setup-only 1] --out FILE
//
// Prints "LOADGEN ok=<0|1> first_reply_us=<monotonic µs>" and exits 0 when
// the cluster answered the set-up write (and, unless --setup-only, the
// prefill); the history file then holds one line per operation.
#include <csignal>
#include <algorithm>
#include <cstdio>
#include <exception>
#include <string>

#include "loadgen.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::LoadSpec& spec,
           std::string& out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (perfbench::parse_load_flag(key, value, spec)) continue;
    if (key == "--servers") {
      std::size_t pos = 0;
      while (pos < value.size()) {
        const std::size_t comma = std::min(value.find(',', pos), value.size());
        const std::string hp = value.substr(pos, comma - pos);
        const std::size_t colon = hp.rfind(':');
        if (colon == std::string::npos) return false;
        spec.servers.emplace_back(
            hp.substr(0, colon),
            static_cast<std::uint16_t>(std::stoul(hp.substr(colon + 1))));
        pos = comma + 1;
      }
    } else if (key == "--kill-pid") {
      const int pid = std::stoi(value);
      spec.kill = [pid] { ::kill(pid, SIGKILL); };
    } else if (key == "--setup-only") {
      spec.setup_only = value == "1";
    } else if (key == "--out") {
      out = value;
    } else {
      return false;
    }
  }
  return !spec.servers.empty() && !out.empty() &&
         (spec.setup_only || !spec.steps.empty());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::LoadSpec spec;
  std::string out;
  try {
    if (!parse(argc, argv, spec, out)) {
      std::fprintf(stderr, "usage: see the header of loadgen_main.cpp\n");
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  perfbench::LoadGen gen(std::move(spec));
  const bool ok = gen.run();
  std::FILE* f = std::fopen(out.c_str(), "w");
  if (f == nullptr) {
    std::perror(out.c_str());
    return 1;
  }
  gen.write_history(f);
  std::fclose(f);
  std::printf("LOADGEN ok=%d first_reply_us=%llu\n", ok ? 1 : 0,
              static_cast<unsigned long long>(gen.first_reply_us()));
  return ok ? 0 : 1;
}

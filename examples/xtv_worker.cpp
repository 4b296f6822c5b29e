// Remote shard worker for the leased fan-out protocol (DESIGN.md §14).
//
// A worker is a dumb, stateless analysis box: it listens on TCP, accepts
// one coordinator (chip_audit --workers, or an xtv_serve daemon) at a
// time, rebuilds the job's design from the spec replayed in the setup
// frame, refuses the job unless its own options-result hash matches the
// coordinator's (wrong-config results must never merge), and then
// analyzes leased work units until the connection closes. All failure
// policy — lease expiry, reassignment, quarantine, concession — lives on
// the coordinator; a worker that dies mid-unit simply stops answering.
//
// Build & run:  ./build/examples/xtv_worker [flags]
//   --listen HOST:PORT      listen address (default 127.0.0.1:0 = ephemeral)
//   --endpoint-file PATH    atomically publish the bound host:port here
//                           (how scripts discover an ephemeral port)
//   --cell-cache PATH       cell characterization cache file (default:
//                           xtv_cells.cache next to the binary)
//   --max-coordinators N    serve N coordinator connections, then exit
//                           (default 0 = serve forever)
#include <cstdio>
#include <cstring>
#include <string>

#include "flags.h"
#include "serve/remote.h"
#include "util/log.h"

using namespace xtv;

int main(int argc, char** argv) {
  // Like the daemon's, a worker's lifecycle lines ("listening on ...",
  // "job accepted ...") are its user interface: scripts wait on them.
  set_log_level(LogLevel::kInfo);
  serve::WorkerOptions options;

  options.cell_cache = flags::default_cell_cache(argv[0]);

  flags::SeenFlags seen;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    seen.check(arg);
    auto value = [&] { return flags::value(argc, argv, &i); };
    if (std::strcmp(arg, "--listen") == 0) {
      options.listen = value();
    } else if (std::strcmp(arg, "--endpoint-file") == 0) {
      options.endpoint_file = value();
    } else if (std::strcmp(arg, "--cell-cache") == 0) {
      options.cell_cache = value();
    } else if (std::strcmp(arg, "--max-coordinators") == 0) {
      options.max_coordinators = flags::parse_size(arg, value());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }

  return serve::run_worker(options);
}

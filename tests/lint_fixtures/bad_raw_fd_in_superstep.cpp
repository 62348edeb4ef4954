// plum-lint fixture (lint-only, never compiled): bare POSIX fd calls
// inside a superstep lambda. All message movement belongs to the
// Transport at the barrier (runtime/transport.hpp's exchange());
// a rank program that reads or writes a file descriptor moves bytes
// outside the ledger, the conservation check, and the delivery-order
// contract. Member calls (`outbox.send`) and host-side fd use outside the
// lambda must NOT be flagged.
// Expected: 3x raw-fd-in-superstep.
#include <unistd.h>

#include "runtime/engine.hpp"

namespace plum::fixture {

void bad_raw_fd_in_superstep(rt::Engine& eng, int fd) {
  eng.run([&](Rank rank, const rt::Inbox& inbox, rt::Outbox& outbox) {
    char buf[16];
    (void)read(fd, buf, sizeof buf);       // BAD: bare fd read in a rank
    (void)::write(fd, buf, sizeof buf);    // BAD: global-scope fd write
    (void)send(fd, buf, sizeof buf, 0);    // BAD: socket send, not Outbox
    outbox.send((rank + 1) % 2, 0, {});    // OK: member call, the BSP API
    (void)inbox;
    return false;
  });
}

// OK: host-side fd use outside any superstep lambda.
void host_side_io(int fd) {
  char buf[4];
  (void)read(fd, buf, sizeof buf);
  (void)close(fd);
}

}  // namespace plum::fixture

// Multi-declarator locals inside a superstep lambda. Every top-level
// declarator of `const double pa = f(a), pb = f(b);` is a local, so later
// writes to any of them are not captured-state mutations. Initializers with
// commas inside balanced groups (calls, braces, template argument lists)
// must not be mistaken for further declarators. A genuine captured write in
// the same lambda is still flagged.
#include <utility>
#include <vector>

#include "runtime/engine.hpp"

namespace rt = plum::rt;
using plum::Rank;

double f(double x) { return 2 * x; }
double g(double x, double y) { return x + y; }

void multi_declarators(rt::Engine& eng, std::vector<double>& out_slots) {
  double shared = 0;
  eng.run([&](Rank r, const rt::Inbox& in, rt::Outbox& out) {
    const double a = 1.0, b = 2.0;
    double pa = f(a), pb = f(b);
    double vna = g(pa, pb), vnb = g(pb, pa), vnc{g(a, b)};
    std::pair<int, int> p1{1, 2}, p2 = std::make_pair<int, int>(3, 4);
    int *ptr = nullptr, &ref = p1.first;
    for (int i = 0, n = 3; i < n; ++i) {
      pb += i;  // second declarator: local
      n -= 0;   // second for-header declarator: local
    }
    pb = vna + vnb + vnc;  // second declarators: locals
    vnb *= 2;
    p2.second = 5;
    ref = p2.second;
    ptr = &ref;
    out_slots[static_cast<std::size_t>(r)] = pa + pb + vnb + *ptr;
    shared += pb;  // flagged: shared-accumulator
    return false;
  });
}

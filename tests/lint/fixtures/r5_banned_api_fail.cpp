// gstg-lint fixture: R5 must flag naked lock()/unlock(), rand(),
// std::function in hot scope, and mode-knob env reads and Timer::lap_ms
// stage bookkeeping in library scope (fixture mode applies the union of
// scopes).
// gstg-lint-expect: 7
#include <cstdlib>
#include <functional>
#include <mutex>

namespace fixture {

std::mutex g_mutex;

int unsafe_sample(const std::function<int()>& pick) {
  g_mutex.lock();
  const int value = pick() + rand();
  g_mutex.unlock();
  return value;
}

const char* pipeline_override() { return std::getenv("GSTG_PIPELINE"); }

const char* simd_override() { return std::getenv("GSTG_SIMD"); }

template <class Timer>
double stage_ms(Timer& timer) { return timer.lap_ms(); }

}  // namespace fixture

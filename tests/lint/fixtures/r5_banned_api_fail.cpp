// gstg-lint fixture: R5 must flag naked lock()/unlock(), rand(),
// std::function in hot scope, and mode-knob env reads in library scope
// (fixture mode applies the union of scopes).
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

}  // namespace fixture

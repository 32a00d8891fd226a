// lint-fixture-as: src/sched/double_count.h
// lint-expect: double-count
// A class that counts in its own Stats and also holds pushed instruments
// beside them: every event would be counted twice.
class Router {
 public:
  struct Stats {
    int64_t fetches = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  Stats stats_;
  obs::Counter* fetches_counter_ = nullptr;
  obs::Gauge *healthy_gauge_ = nullptr;
};

// lint-fixture-as: src/sched/double_count_ok.h
// The class's Stats cells are attached, not mirrored; a pushed histogram
// has no Stats twin, and a class without struct Stats (or a nested class of
// one) may hold pushed counters.
class Router {
 public:
  struct Stats {
    int64_t fetches = 0;
  };
  class Emitter {
    obs::Counter* emitted_counter_ = nullptr;
  };

 private:
  Stats stats_;
  obs::Attachment metrics_;
  obs::Histogram* latency_hist_ = nullptr;
};

class Activity {
  obs::Counter* elements_counter_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
};

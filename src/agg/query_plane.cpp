#include "agg/query_plane.h"

#include "common/contracts.h"

namespace fcm::agg {

void QueryPlane::publish(std::shared_ptr<const NetworkView> view) {
  FCM_REQUIRE(view != nullptr, "QueryPlane: cannot publish a null view");
  {
    common::MutexLock lock(mutex_);
    FCM_REQUIRE(current_ == nullptr || view->epoch > current_->epoch,
                "QueryPlane: views must publish with strictly increasing "
                "epochs");
    current_.swap(view);
  }
  // `view` now holds the previous generation: unless a reader pins it, it
  // is freed here, outside the lock.
}

std::shared_ptr<const NetworkView> QueryPlane::current() const {
  common::MutexLock lock(mutex_);
  return current_;
}

}  // namespace fcm::agg

// Short names for the FCM library's namespaces inside the harness.
#pragma once

namespace fcm::agg {}
namespace fcm::common {}
namespace fcm::control {}
namespace fcm::core {}
namespace fcm::datapath {}
namespace fcm::flow {}
namespace fcm::framework {}
namespace fcm::metrics {}
namespace fcm::obs {}
namespace fcm::runtime {}

namespace perfbench {
namespace agg = fcm::agg;
namespace control = fcm::control;
namespace core = fcm::core;
namespace datapath = fcm::datapath;
namespace flow = fcm::flow;
namespace framework = fcm::framework;
namespace metrics = fcm::metrics;
namespace obs = fcm::obs;
namespace runtime = fcm::runtime;
}  // namespace perfbench

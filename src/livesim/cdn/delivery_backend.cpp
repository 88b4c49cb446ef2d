#include "livesim/cdn/delivery_backend.h"

namespace livesim::cdn {

const char* tier_name(DeliveryTier tier) noexcept {
  switch (tier) {
    case DeliveryTier::kRtmp:
      return "rtmp";
    case DeliveryTier::kLlHls:
      return "llhls";
    case DeliveryTier::kHls:
      return "hls";
  }
  return "unknown";
}

}  // namespace livesim::cdn

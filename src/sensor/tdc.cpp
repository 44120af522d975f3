#include "roclk/sensor/tdc.hpp"

namespace roclk::sensor {

Status Tdc::validate(const TdcConfig& config) {
  if (config.max_reading < 1) {
    return Status::invalid_argument("max_reading must be >= 1");
  }
  return Status::ok();
}

Tdc::Tdc(TdcConfig config) : config_{config} {
  ROCLK_CHECK_OK(validate(config_));
}

}  // namespace roclk::sensor

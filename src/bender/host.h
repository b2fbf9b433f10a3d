/**
 * @file
 * The host side of the testing infrastructure (paper Fig. 2): a module
 * socket with a Device, a program Executor, and the temperature rig
 * (heater pads + controller) as a settable environment model.
 */

#ifndef PUD_BENDER_HOST_H
#define PUD_BENDER_HOST_H

#include <memory>

#include "bender/executor.h"
#include "bender/program.h"
#include "dram/device.h"

namespace pud::bender {

/**
 * Model of the heater-pad temperature controller (Maxwell FT20X in the
 * paper's rig).  The real controller holds the chips within a fraction
 * of a degree of the setpoint; settling is modeled as instantaneous.
 */
class TemperatureController
{
  public:
    explicit TemperatureController(dram::Device &device)
        : device_(&device)
    {}

    void
    setTarget(Celsius target)
    {
        if (target < 20.0 || target > 95.0)
            fatal("temperature target %.1fC outside rig range", target);
        device_->setTemperature(target);
    }

    Celsius current() const { return device_->temperature(); }

  private:
    dram::Device *device_;
};

/**
 * One DUT socket: owns the Device, its Executor, and the temperature
 * controller, plus host-DMA row helpers the characterization harness
 * uses for initialization and result collection.
 */
class TestBench
{
  public:
    explicit TestBench(dram::DeviceConfig cfg)
        : device_(std::make_unique<dram::Device>(std::move(cfg))),
          executor_(*device_),
          thermo_(*device_)
    {}

    dram::Device &device() { return *device_; }
    const dram::Device &device() const { return *device_; }
    Executor &executor() { return executor_; }
    TemperatureController &thermo() { return thermo_; }

    ExecResult run(const Program &p) { return executor_.run(p); }

    /**
     * Re-seed the socket for the next module instance without
     * reconstructing the Device arena: O(populated rows).  The
     * Executor keeps the last run's shape and prefix logs (the logs'
     * guards re-check the device state); ModuleTester::reset also
     * forgets them.
     */
    void reset(std::uint64_t seed) { device_->reset(seed); }

    void
    writeRow(BankId bank, RowId row, const RowData &data)
    {
        device_->writeRowDirect(bank, row, data);
    }

    void
    fillRow(BankId bank, RowId row, dram::DataPattern pattern)
    {
        device_->writeRowDirect(
            bank, row, RowData(device_->config().cols, pattern));
    }

    RowData
    readRow(BankId bank, RowId row) const
    {
        return device_->readRowDirect(bank, row);
    }

    /** Count bitflips of a row against its expected contents. */
    std::size_t
    countBitflips(BankId bank, RowId row, const RowData &expected) const
    {
        return device_->diffCountDirect(bank, row, expected);
    }

  private:
    std::unique_ptr<dram::Device> device_;
    Executor executor_;
    TemperatureController thermo_;
};

} // namespace pud::bender

#endif // PUD_BENDER_HOST_H

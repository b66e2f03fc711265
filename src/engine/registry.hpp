#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/backend.hpp"

namespace srmac {

/// Process-wide string-keyed registry of MatmulBackend implementations.
/// The four built-ins ("fp32", "reference", "sharded", "systolic") are
/// registered inside instance() — not by static initializers, which a
/// static-library link would silently drop — and additional backends
/// (remote, test doubles) register at runtime under new names without
/// touching any call site. register_backend on an existing name replaces
/// the factory; shared instances get() already handed out stay alive and
/// unchanged.
class BackendRegistry {
 public:
  using Factory = std::function<std::shared_ptr<MatmulBackend>()>;

  static BackendRegistry& instance();

  /// Registers (or replaces) the factory for `name`. Instances already
  /// handed out by get() stay alive and unchanged.
  void register_backend(const std::string& name, Factory factory);

  /// Fresh instance of `name`. Throws std::invalid_argument listing the
  /// registered names when the key is unknown.
  std::shared_ptr<MatmulBackend> create(const std::string& name) const;

  /// The shared instance of `name`, created on first request and kept for
  /// the life of the process — the pointer ComputeContext carries.
  /// Throws std::invalid_argument on unknown names.
  const MatmulBackend* get(const std::string& name);

  std::vector<std::string> names() const;
  bool contains(const std::string& name) const;

 private:
  BackendRegistry();

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
  std::map<std::string, std::shared_ptr<MatmulBackend>> shared_;
};

}  // namespace srmac

#include "native/backend.hpp"

#include <memory>

#include "native/abi.hpp"
#include "native/emit.hpp"
#include "native/jit.hpp"

namespace lucid::native {

namespace {

class NativeBackend final : public Backend {
 public:
  [[nodiscard]] std::string name() const override { return "native"; }
  [[nodiscard]] std::string description() const override {
    return "JIT-compiled native execution engine (interp semantics, "
           "compiled to straight-line C++)";
  }
  [[nodiscard]] Stage required_stage() const override { return Stage::Layout; }

  [[nodiscard]] BackendArtifact emit(Compilation& comp) override {
    BackendArtifact artifact;
    artifact.backend = name();
    if (!comp.pipeline().feasible) {
      comp.diags().error({}, "native-layout-infeasible",
                         "cannot emit native module: pipeline layout is "
                         "infeasible");
      return artifact;
    }
    for (const auto& ev : comp.ir().events) {
      if (ev.params.size() > static_cast<std::size_t>(kMaxArgs)) {
        comp.diags().error({}, "native-too-many-params",
                           "event " + ev.name + " has " +
                               std::to_string(ev.params.size()) +
                               " params; the native ABI caps at " +
                               std::to_string(kMaxArgs));
        return artifact;
      }
    }

    const EmittedModule m = emit_source(comp, comp.options().program_name);
    artifact.text = m.text;
    artifact.metrics["loc"] = m.loc;
    artifact.metrics["stages"] = m.stages;
    artifact.metrics["gen_sites"] = m.gen_sites;

    // Compile-and-load as a smoke test: a module the system compiler
    // rejects is an emitter bug worth a diagnostic, not a silent artifact.
    std::string err;
    Origin served = Origin::kCompiled;
    const auto module = Module::load(m.text, &err, &served);
    if (module == nullptr) {
      comp.diags().error({}, "native-jit-failed", err);
      return artifact;
    }
    // compile_ms is 0 unless this call ran the compiler; jit_origin says
    // which cache layer answered instead (Origin: 0 compiled, 1 disk,
    // 2 memory).
    artifact.metrics["compile_ms"] =
        served == Origin::kCompiled
            ? static_cast<std::int64_t>(module->compile_ms())
            : 0;
    artifact.metrics["jit_origin"] = static_cast<std::int64_t>(served);
    artifact.metrics["max_gens"] = module->max_gens();
    artifact.ok = true;
    return artifact;
  }
};

}  // namespace

bool register_backend(BackendRegistry& registry) {
  return registry.add(std::make_unique<NativeBackend>());
}

}  // namespace lucid::native

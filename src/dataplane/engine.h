// The data plane's execution engine: the tree-walking Interpreter is the
// only one, and the semantics the symbolic executor and the concolic
// relight check model.
//
// The enum remains as a one-value provenance tag: campaign reports name
// the engine that ran them, and core::WorkerContext still accepts one.
#pragma once

namespace ndb::dataplane {

enum class Engine {
    interpreter = 0,
};

inline const char* engine_name(Engine /*engine*/) { return "interpreter"; }

inline Engine default_engine() { return Engine::interpreter; }

}  // namespace ndb::dataplane

// Reverse-mode automatic differentiation.
//
// A Variable is a shared handle to a graph node holding a Matrix value,
// its gradient, and a backward closure that scatters the node's gradient
// into its parents. Ops (ops.h) build the graph on the fly; Backward()
// topologically sorts the graph and runs the closures in reverse.
//
// When no input of an op requires gradients the op produces a leaf
// constant, so pure inference builds no graph and allocates no closures.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/matrix.h"

namespace lead::nn {

namespace internal {

struct Node {
  Matrix value;
  Matrix grad;  // allocated lazily, same shape as value
  bool requires_grad = false;
  // Backward()'s visited mark: set by its graph walk and cleared again
  // before the closures run. It fills padding after requires_grad, so it
  // costs no memory (every forward op allocates a Node, inference
  // included). Two threads must never run Backward() over graphs that
  // share a requires-grad node; gradient shards each use their own module
  // replica (core/grad_parallel.cc).
  bool visited = false;
  std::vector<std::shared_ptr<Node>> parents;
  // Scatters `out_grad` (same shape as value) into the parents' grads.
  // Null for leaves.
  std::function<void(const Matrix& out_grad)> backward;
#ifdef LEAD_CHECK_SHAPES
  // Contract-checking metadata (contract.h): the op that produced this
  // node (static-storage string) and whether Backward() already consumed
  // its closure, which catches double-backward through a stale graph.
  const char* op_name = "leaf";
  bool backward_consumed = false;
#endif

  void EnsureGrad() {
    if (!grad.SameShape(value)) {
      grad = Matrix::Zeros(value.rows(), value.cols());
    }
  }
};

}  // namespace internal

class Variable {
 public:
  // Null handle; defined() is false.
  Variable() = default;

  // A leaf that does not require gradients.
  [[nodiscard]] static Variable Constant(Matrix value);
  // A trainable leaf; gradients accumulate across Backward() calls until
  // ZeroGrad().
  [[nodiscard]] static Variable Parameter(Matrix value);
  // Used by ops: a node computed from `parents` with the given backward
  // closure. Requires grad, and keeps the closure and the parents, iff
  // internal::KeepsBackward(parents); the closure may be empty otherwise.
  // `op_name` must point at static storage; under LEAD_CHECK_SHAPES it
  // names the op in contract-violation reports and the output value is
  // scanned for the first non-finite element.
  [[nodiscard]] static Variable FromOp(
      Matrix value, std::vector<Variable> parents,
      std::function<void(const Matrix& out_grad)> backward,
      const char* op_name = "unnamed-op");

  [[nodiscard]] bool defined() const { return node_ != nullptr; }
  [[nodiscard]] const Matrix& value() const { return node_->value; }
  // Mutable access for optimizers and in-place parameter loading.
  Matrix& mutable_value() { return node_->value; }
  [[nodiscard]] const Matrix& grad() const { return node_->grad; }
  // Mutable access for the sharded gradient reducer (core/grad_parallel),
  // which installs externally-accumulated gradients before a Step().
  Matrix& mutable_grad() { return node_->grad; }
  [[nodiscard]] bool requires_grad() const { return node_ && node_->requires_grad; }

  [[nodiscard]] int rows() const { return node_->value.rows(); }
  [[nodiscard]] int cols() const { return node_->value.cols(); }

  // Zeroes the accumulated gradient (allocating it if needed).
  void ZeroGrad();

  internal::Node* node() const { return node_.get(); }
  std::shared_ptr<internal::Node> shared_node() const { return node_; }

 private:
  explicit Variable(std::shared_ptr<internal::Node> node)
      : node_(std::move(node)) {}

  std::shared_ptr<internal::Node> node_;
};

// Runs reverse-mode differentiation from `root`, which must be a scalar
// ([1 x 1]). Gradients accumulate into every reachable node that requires
// them (notably parameters).
void Backward(const Variable& root);

// While alive, every op output is treated as a constant: no parents are
// retained and no backward closures are allocated. Use for inference and
// validation passes. Nestable; thread-local.
class NoGradGuard {
 public:
  NoGradGuard();
  ~NoGradGuard();
  NoGradGuard(const NoGradGuard&) = delete;
  NoGradGuard& operator=(const NoGradGuard&) = delete;

 private:
  bool previous_;
};

namespace internal {
// True while at least one NoGradGuard is alive on this thread.
bool NoGradEnabled();

// True when Variable::FromOp keeps the backward closure of an op with
// these inputs: no NoGradGuard is alive and some input requires grad.
// Ops whose closure snapshots a tensor build it only then, so inference
// pays no copy.
bool KeepsBackward(std::span<const Variable> parents);

// The transpose of leaf `node`'s value (a weight) for the Backward() pass
// running on this thread, for MatMulTransposeBAccumulate's `b_t`. It is
// built on first request and freed when the pass returns, so an unrolled
// sequence multiplying by one weight at every step transposes it once
// per pass, and an in-place update between passes (an optimizer step)
// can never meet a stale copy. Null outside a pass, for nodes with
// parents (used once; not worth keeping), and on hosts where
// MatMulTransposeBAccumulate runs the scalar loop, which reads b itself.
// The pointer stays valid until the pass ends.
const Matrix* PassTranspose(const Node* node);
}  // namespace internal

}  // namespace lead::nn


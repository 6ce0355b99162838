#include "nn/variable.h"

#include <deque>
#include <utility>

#include "common/check.h"
#include "nn/contract.h"

namespace lead::nn {

Variable Variable::Constant(Matrix value) {
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
  node->requires_grad = false;
  return Variable(std::move(node));
}

Variable Variable::Parameter(Matrix value) {
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
  node->requires_grad = true;
  node->EnsureGrad();
  return Variable(std::move(node));
}

namespace {
thread_local bool no_grad_mode = false;

// Node's fields without the visited mark: the mark must fit in padding.
struct NodeWithoutVisitedMark {
  Matrix value;
  Matrix grad;
  bool requires_grad;
  std::vector<std::shared_ptr<internal::Node>> parents;
  std::function<void(const Matrix& out_grad)> backward;
#ifdef LEAD_CHECK_SHAPES
  const char* op_name;
  bool backward_consumed;
#endif
};
static_assert(sizeof(internal::Node) == sizeof(NodeWithoutVisitedMark),
              "Node::visited must not grow Node");

// State of the Backward() pass running on this thread: the weight
// transposes handed out by PassTranspose, in first-use order. A deque
// keeps handed-out pointers valid as it grows; a model has few enough
// weights that a linear scan beats hashing.
class BackwardPass {
 public:
  BackwardPass() : previous_(std::exchange(active_, this)) {}
  ~BackwardPass() { active_ = previous_; }
  BackwardPass(const BackwardPass&) = delete;
  BackwardPass& operator=(const BackwardPass&) = delete;

  static BackwardPass* active() { return active_; }

  const Matrix* Transpose(const internal::Node* node) {
    for (const auto& [cached, transposed] : transposes_) {
      if (cached == node) return &transposed;
    }
    return &transposes_.emplace_back(node, Transposed(node->value)).second;
  }

 private:
  static thread_local BackwardPass* active_;
  BackwardPass* previous_;
  std::deque<std::pair<const internal::Node*, Matrix>> transposes_;
};

thread_local BackwardPass* BackwardPass::active_ = nullptr;

}  // namespace

NoGradGuard::NoGradGuard() : previous_(no_grad_mode) {
  no_grad_mode = true;
}
NoGradGuard::~NoGradGuard() { no_grad_mode = previous_; }

namespace internal {
bool NoGradEnabled() { return no_grad_mode; }

bool KeepsBackward(std::span<const Variable> parents) {
  if (no_grad_mode) return false;
  for (const Variable& p : parents) {
    if (p.requires_grad()) return true;
  }
  return false;
}

const Matrix* PassTranspose(const Node* node) {
  BackwardPass* pass = BackwardPass::active();
  if (pass == nullptr || !node->parents.empty() || !GemmSimdAvailable()) {
    return nullptr;
  }
  return pass->Transpose(node);
}
}  // namespace internal

Variable Variable::FromOp(
    Matrix value, std::vector<Variable> parents,
    std::function<void(const Matrix& out_grad)> backward,
    const char* op_name) {
#ifdef LEAD_CHECK_SHAPES
  // First-NaN-origin: the op whose forward output first goes non-finite
  // is the bug's true location; report it here rather than letting the
  // value poison a loss 40 ops downstream.
  contract::RequireFinite(op_name, "output value", value);
  for (const Variable& p : parents) {
    if (!p.defined()) contract::TapeFail(op_name, "undefined input Variable");
  }
#endif
  auto node = std::make_shared<internal::Node>();
  node->value = std::move(value);
#ifdef LEAD_CHECK_SHAPES
  node->op_name = op_name;
#else
  (void)op_name;
#endif
  if (!internal::KeepsBackward(parents)) return Variable(std::move(node));
  node->requires_grad = true;
  node->parents.reserve(parents.size());
  for (Variable& p : parents) {
    node->parents.push_back(p.shared_node());
  }
  node->backward = std::move(backward);
  return Variable(std::move(node));
}

void Variable::ZeroGrad() {
  LEAD_CHECK(defined());
  node_->EnsureGrad();
  node_->grad.Fill(0.0f);
}

void Backward(const Variable& root) {
  LEAD_CHECK(root.defined());
  LEAD_CHECK_EQ(root.value().size(), 1);
  LEAD_CHECK(root.requires_grad());

  // Iterative post-order DFS to produce a topological order (parents
  // before children in `order` after the walk; we then run in reverse).
  // Every node the walk marks reaches `order`, which clears the marks.
  std::vector<internal::Node*> order;
  struct Frame {
    internal::Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root.node(), 0});
  root.node()->visited = true;
  while (!stack.empty()) {
    Frame& frame = stack.back();
    if (frame.next_parent < frame.node->parents.size()) {
      internal::Node* parent =
          frame.node->parents[frame.next_parent++].get();
      if (parent->requires_grad && !parent->visited) {
        parent->visited = true;
        stack.push_back({parent, 0});
      }
    } else {
      order.push_back(frame.node);
      stack.pop_back();
    }
  }

  for (internal::Node* node : order) {
    node->visited = false;
    node->EnsureGrad();
  }
  root.node()->grad.Fill(1.0f);

  BackwardPass pass;

  // `order` lists parents before children; reverse order visits each node
  // after all of its consumers have contributed to its gradient.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    internal::Node* node = *it;
#ifdef LEAD_CHECK_SHAPES
    // Dangling node: requires grad and has retained parents, but the op
    // never installed a closure — its parents would silently receive no
    // gradient.
    if (!node->backward && !node->parents.empty()) {
      contract::TapeFail(node->op_name,
                         "node with parents has no backward closure");
    }
    if (node->backward) {
      if (node->backward_consumed) {
        contract::TapeFail(
            node->op_name,
            "double Backward() through the same graph; rebuild the forward "
            "pass (gradients would be double-counted)");
      }
      node->backward_consumed = true;
      if (!node->grad.SameShape(node->value)) {
        contract::Fail(node->op_name,
                       "gradient shape must match value shape",
                       node->grad.rows(), node->grad.cols(),
                       node->value.rows(), node->value.cols());
      }
      // First-NaN-origin on the backward pass: name the op whose output
      // gradient first went non-finite.
      contract::RequireFinite(node->op_name, "output gradient", node->grad);
    }
#endif
    if (node->backward) node->backward(node->grad);
  }
}

}  // namespace lead::nn

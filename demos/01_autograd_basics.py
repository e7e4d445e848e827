#!/usr/bin/env python3
"""Tour of the autograd core: tensors, the tape, gradients, and Adam.

Run:  python3 demos/01_autograd_basics.py
"""

import numpy as np

import capfuse.autograd as ag
from capfuse.autograd import Tensor, backward
from capfuse.optim import Adam

rng = np.random.default_rng(0)

# --- forward math records onto a tape -------------------------------------
a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
product = ag.matmul(a, b)
loss = ag.tensor_sum(ag.tanh(product))
print(f"loss = {loss.item():.6f} (tape holds {len(ag.active_tape())} ops)")

# --- one reverse sweep populates every reachable gradient ------------------
backward(loss)
print(f"grad(a) shape {a.grad.shape}, grad(b) shape {b.grad.shape}")

# --- check one entry against central finite differences --------------------
step = 1e-5
keep = a.data[0, 0]
with ag.no_grad():
    a.data[0, 0] = keep + step
    up = ag.tensor_sum(ag.tanh(ag.matmul(a, b))).item()
    a.data[0, 0] = keep - step
    down = ag.tensor_sum(ag.tanh(ag.matmul(a, b))).item()
    a.data[0, 0] = keep
fd = (up - down) / (2 * step)
print(f"autograd {a.grad[0, 0]:+.8f} vs finite difference {fd:+.8f}")

# --- elementwise ops are plain functions on same-shaped tensors ------------
gate = ag.tanh(Tensor([[0.0, 1.0, -1.0]]))
print(f"tanh([0, 1, -1]) = {np.round(gate.data, 4).tolist()}")

# --- Adam walks a quadratic to its optimum ---------------------------------
x = Tensor([0.0], requires_grad=True)
opt = Adam({"x": x}, lr=0.1)
for i in range(100):
    opt.zero_grad()
    diff = ag.add(x, Tensor([-2.0]))
    backward(ag.tensor_sum(ag.mul(diff, diff)))
    opt.step()
print(f"argmin of (x-2)^2 after 100 Adam steps: x = {x.data[0]:.4f}")

"""Minimal dense/convolutional layer-graph engine.

Tensors are plain numpy arrays, (channels, height, width) for feature maps
and (length,) for flat vectors, float32 in production graphs. Gradients are
nested dicts layer name -> parameter name -> array, congruent with the
graph's parameters. backward(tape, upstream) takes the tape that
forward(x, record=True) returns with the output: one forward pass per step.
"""

from .graph import FlopCounts, LayerGraph, count_flops, count_params, gradients_congruent, zero_gradients
from .layers import ConcatChannels, Conv2D, Dense, Flatten, GroupNorm, Layer, ReLU, Upsample2xNearest
from .modelio import load_model, save_model
from .toy import HeadLayout, ToyConfig, build_toy_backbone, build_toy_gdrn, build_toy_head, build_toy_pnp

__all__ = [
    "ConcatChannels",
    "Conv2D",
    "Dense",
    "Flatten",
    "FlopCounts",
    "GroupNorm",
    "HeadLayout",
    "Layer",
    "LayerGraph",
    "ReLU",
    "ToyConfig",
    "Upsample2xNearest",
    "build_toy_backbone",
    "build_toy_gdrn",
    "build_toy_head",
    "build_toy_pnp",
    "count_flops",
    "count_params",
    "gradients_congruent",
    "load_model",
    "save_model",
    "zero_gradients",
]

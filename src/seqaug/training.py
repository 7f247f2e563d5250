"""The one mini-batch Adam loop behind both trainers: the SU-Net noise
predictor (``augment.train_augmentor``) and the recommender (``srs._fit``)."""

import numpy as np

from . import numerics as nd


def epoch_losses(stage, model, lr, n, batch_size, epochs, shuffle_rng, batch_loss):
    """Train ``model`` with Adam at ``lr`` and yield each epoch's mean loss.
    Each epoch shuffles the ``n`` example indices with ``shuffle_rng`` and
    steps once per ``batch_loss(indices)`` over slices of ``batch_size``. A
    non-finite loss raises FloatingPointError naming ``stage``, epoch and batch."""
    opt = nd.Adam(list(model.parameters().values()), lr=lr)
    order = np.arange(n)
    for epoch in range(1, epochs + 1):
        shuffle_rng.shuffle(order)
        total = 0.0
        for batch, start in enumerate(range(0, n, batch_size), start=1):
            loss = batch_loss(order[start:start + batch_size])
            value = float(loss.data)
            if not np.isfinite(value):
                raise FloatingPointError(f"{stage}: loss {value} at epoch {epoch}, batch {batch}")
            model.zero_grad()
            nd.backward(loss)
            opt.step()
            total += value
            # free this batch's graph before the next batch builds its own
            del loss
        yield total / batch

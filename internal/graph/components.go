package graph

// ConnectedComponents labels every vertex with a component ID in
// 0..count-1 and returns (labels, count). Isolated vertices form their own
// components.
func (g *Graph) ConnectedComponents() (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	queue := make([]int32, 0, 64)
	for s := int32(0); s < int32(n); s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = int32(count)
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] < 0 {
					labels[w] = int32(count)
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}
